"""Unit tests for distribution statistics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis import Cdf, bootstrap_ci, percentile, summarize
from repro.errors import AnalysisError


class TestCdf:
    def test_simple_quantiles(self):
        cdf = Cdf.from_samples([1, 2, 3, 4])
        assert cdf.quantile(0.25) == 1
        assert cdf.quantile(0.5) == 2
        assert cdf.quantile(1.0) == 4

    def test_fraction_below(self):
        cdf = Cdf.from_samples([10, 20, 30, 40])
        assert cdf.fraction_below(5) == 0.0
        assert cdf.fraction_below(20) == 0.5
        assert cdf.fraction_below(100) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            Cdf.from_samples([])

    def test_bad_quantile_rejected(self):
        cdf = Cdf.from_samples([1.0])
        with pytest.raises(AnalysisError):
            cdf.quantile(0.0)
        with pytest.raises(AnalysisError):
            cdf.quantile(1.5)

    def test_points_downsamples(self):
        cdf = Cdf.from_samples(np.arange(10_000))
        pts = cdf.points(max_points=100)
        assert len(pts) <= 100
        assert pts[-1][1] == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_property_monotone(self, samples):
        cdf = Cdf.from_samples(samples)
        assert np.all(np.diff(cdf.values) >= 0)
        assert np.all(np.diff(cdf.fractions) > 0)
        assert cdf.fractions[-1] == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=2, max_size=100))
    def test_property_median_between_extremes(self, samples):
        cdf = Cdf.from_samples(samples)
        assert min(samples) <= cdf.median <= max(samples)


class TestPercentile:
    def test_median_of_known_set(self):
        assert percentile([1, 2, 3], 50) == 2.0

    def test_out_of_range_rejected(self):
        with pytest.raises(AnalysisError):
            percentile([1], 150)


class TestBootstrap:
    def test_point_estimate_is_statistic(self):
        est, lo, hi = bootstrap_ci([1.0, 2.0, 3.0])
        assert est == pytest.approx(2.0)
        assert lo <= est <= hi

    def test_narrow_for_constant_data(self):
        est, lo, hi = bootstrap_ci([5.0] * 50)
        assert lo == pytest.approx(5.0)
        assert hi == pytest.approx(5.0)

    def test_deterministic_given_seed(self):
        a = bootstrap_ci([1, 5, 9, 2, 8])
        b = bootstrap_ci([1, 5, 9, 2, 8])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            bootstrap_ci([])


class TestSummarize:
    def test_fields_present_and_ordered(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s["n"] == 5
        assert s["min"] <= s["p10"] <= s["median"] <= s["p90"] <= s["max"]
        assert s["mean"] == pytest.approx(3.0)

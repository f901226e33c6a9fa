"""Unit tests for rate/delay meters and jitter metrics."""

import numpy as np
import pytest

from repro.analysis import DelayMeter, RateMeter, ewma, jitter_metrics
from repro.errors import AnalysisError

from .helpers import make_data


def pkt(flow="f", size=1000):
    return make_data(flow, seq=0, payload=size - 52, size=size)


class TestRateMeter:
    def test_constant_rate_measured(self):
        meter = RateMeter()
        # 1000 bytes every 10 ms = 100 kB/s.
        for i in range(100):
            meter.add(i * 0.01, 1000)
        _, rates = meter.series(0.0, 1.0)
        assert rates.mean() == pytest.approx(100_000)

    def test_flow_filter(self):
        # There is no filter: the tap counts every flow's bytes.
        meter = RateMeter()
        meter.on_packet(pkt("wanted"), 0.005)
        meter.on_packet(pkt("other"), 0.005)
        assert meter.total_bytes == 2000

    def test_empty_bins_are_zero(self):
        meter = RateMeter()
        meter.add(0.005, 500)
        times, rates = meter.series(0.0, 0.03)
        assert len(rates) == 3
        assert rates[0] == pytest.approx(50_000)
        assert rates[1] == 0.0
        assert rates[2] == 0.0

    def test_series_times_are_bin_centers(self):
        meter = RateMeter()
        times, _ = meter.series(0.0, 0.03)
        assert times == pytest.approx([0.005, 0.015, 0.025])

    def test_invalid_config_rejected(self):
        # The 10 ms bin is the class's; a meter takes no configuration.
        assert RateMeter.bin_width == 0.01
        with pytest.raises(TypeError):
            RateMeter(bin_width=0.0)


class TestDelayMeter:
    def test_records_one_way_delay(self):
        meter = DelayMeter()
        p = pkt()
        p.sent_time = 1.0
        meter.on_packet(p, 1.05)
        times, delays = meter.as_arrays()
        assert delays[0] == pytest.approx(0.05)


class TestEwma:
    def test_alpha_one_is_identity(self):
        x = [1.0, 5.0, 2.0]
        assert list(ewma(x, alpha=1.0)) == x

    def test_smooths_toward_mean(self):
        x = [0.0, 10.0] * 50
        smooth = ewma(x, alpha=0.1)
        assert np.std(smooth[20:]) < np.std(x)

    def test_bad_alpha_rejected(self):
        with pytest.raises(AnalysisError):
            ewma([1.0], alpha=0.0)


class TestJitter:
    def test_constant_delay_has_zero_jitter(self):
        metrics = jitter_metrics([0.05] * 100)
        assert metrics["rfc3550_jitter"] == pytest.approx(0.0)
        assert metrics["delay_std"] == pytest.approx(0.0)

    def test_alternating_delay_has_positive_jitter(self):
        metrics = jitter_metrics([0.01, 0.05] * 100)
        assert metrics["rfc3550_jitter"] > 0.01
        assert metrics["mean_abs_diff"] == pytest.approx(0.04)

    def test_bursty_worse_than_smooth(self):
        rng = np.random.default_rng(0)
        smooth = 0.05 + rng.normal(0, 0.001, 500)
        bursty = 0.05 + np.where(rng.random(500) < 0.1, 0.04, 0.0)
        m_smooth = jitter_metrics(smooth)
        m_bursty = jitter_metrics(bursty)
        assert m_bursty["delay_span_p99_p1"] > m_smooth["delay_span_p99_p1"]

    def test_too_few_samples_rejected(self):
        with pytest.raises(AnalysisError):
            jitter_metrics([0.1])

"""Unit tests for fairness and harm metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (harm, jain_index, max_min_fair_allocation,
                            throughput_shares)
from repro.errors import AnalysisError


class TestJain:
    def test_equal_allocation_is_one(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_known_value(self):
        # x = [1, 2, 3]: (6)^2 / (3 * 14) = 36/42
        assert jain_index([1, 2, 3]) == pytest.approx(36 / 42)

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            jain_index([1, -1])

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_property_bounds(self, alloc):
        idx = jain_index(alloc)
        assert 1.0 / len(alloc) - 1e-9 <= idx <= 1.0 + 1e-9

    def test_subnormal_squares_stay_at_most_one(self):
        # x * x is subnormal here; unscaled, this read 1.000000241.
        assert jain_index([2.2636834487242959e-159] * 2) == 1.0

    @given(st.floats(min_value=0.01, max_value=1e3),
           st.integers(min_value=1, max_value=20))
    def test_property_scale_invariant(self, scale, n):
        base = list(range(1, n + 1))
        scaled = [scale * v for v in base]
        assert jain_index(base) == pytest.approx(jain_index(scaled))


class TestShares:
    def test_shares_sum_to_one(self):
        shares = throughput_shares([2, 6])
        assert shares == [0.25, 0.75]

    def test_zero_total_rejected(self):
        with pytest.raises(AnalysisError):
            throughput_shares([0, 0])


class TestHarm:
    def test_no_harm_when_unchanged(self):
        assert harm(10.0, 10.0) == 0.0

    def test_half_throughput_is_half_harm(self):
        assert harm(10.0, 5.0) == pytest.approx(0.5)

    def test_improvement_clamped_to_zero(self):
        assert harm(10.0, 12.0) == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            harm(0.0, 1.0)


class TestMaxMin:
    def test_all_demands_fit(self):
        assert max_min_fair_allocation([1, 2], 10) == [1, 2]

    def test_fair_split_of_scarce_capacity(self):
        alloc = max_min_fair_allocation([10, 10], 10)
        assert alloc == [5, 5]

    def test_small_demand_protected(self):
        alloc = max_min_fair_allocation([1, 100], 10)
        assert alloc[0] == pytest.approx(1.0)
        assert alloc[1] == pytest.approx(9.0)

    def test_three_way_waterfill(self):
        alloc = max_min_fair_allocation([2, 8, 8], 12)
        assert alloc[0] == pytest.approx(2.0)
        assert alloc[1] == pytest.approx(5.0)
        assert alloc[2] == pytest.approx(5.0)

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                    min_size=1, max_size=10),
           st.floats(min_value=0, max_value=500, allow_nan=False))
    def test_property_never_exceeds_demand_or_capacity(self, demands, cap):
        alloc = max_min_fair_allocation(demands, cap)
        assert sum(alloc) <= cap + 1e-6
        for a, d in zip(alloc, demands):
            assert a <= d + 1e-6

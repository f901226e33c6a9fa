"""Unit and property tests for change-point detection."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (binary_segmentation, pelt,
                            throughput_level_shift)
from repro.analysis.changepoint import (LEVEL_SHIFT_MIN_SEGMENT,
                                       MIN_SEGMENT, L2Cost,
                                       _optimal_partition_rows)
from repro.errors import AnalysisError
from repro.ndt import SyntheticNdtGenerator
from repro.ndt.schema import throughput_rows


def noisy_steps(levels, seg_len=50, noise=0.5, seed=0):
    rng = np.random.default_rng(seed)
    signal = np.concatenate([
        np.full(seg_len, lvl) + rng.normal(0, noise, seg_len)
        for lvl in levels
    ])
    return signal


class TestL2Cost:
    def test_constant_segment_costs_zero(self):
        cost = L2Cost(np.full(20, 3.0))
        assert cost.cost(0, 20) == pytest.approx(0.0, abs=1e-9)

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=30)
        cost = L2Cost(x)
        seg = x[5:20]
        direct = float(np.sum((seg - seg.mean()) ** 2))
        assert cost.cost(5, 20) == pytest.approx(direct)

    def test_split_never_increases_cost(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=50)
        cost = L2Cost(x)
        whole = cost.cost(0, 50)
        for i in range(1, 50):
            assert cost.cost(0, i) + cost.cost(i, 50) <= whole + 1e-9


@pytest.mark.parametrize("detect", [pelt, binary_segmentation])
class TestDetectors:
    def test_no_change_in_constant_signal(self, detect):
        result = detect(noisy_steps([5.0], seg_len=200))
        assert result.num_changes == 0

    def test_finds_single_big_shift(self, detect):
        signal = noisy_steps([10.0, 20.0], seg_len=100, seed=3)
        result = detect(signal)
        assert result.num_changes >= 1
        # At least one breakpoint near the true change at index 100.
        assert any(abs(bp - 100) <= 5 for bp in result.breakpoints)

    def test_finds_two_shifts(self, detect):
        signal = noisy_steps([5.0, 15.0, 2.0], seg_len=80, seed=4)
        result = detect(signal)
        found = sorted(result.breakpoints)
        assert any(abs(bp - 80) <= 5 for bp in found)
        assert any(abs(bp - 160) <= 5 for bp in found)

    def test_short_signal_raises(self, detect):
        with pytest.raises(AnalysisError):
            detect([1.0, 2.0])

    def test_empty_signal_raises(self, detect):
        with pytest.raises(AnalysisError):
            detect([])

    def test_tiny_signal_raises_with_large_min_segment(self, detect):
        with pytest.raises(AnalysisError):
            detect([1.0] * (2 * MIN_SEGMENT - 1))

    def test_exactly_two_segments_accepted(self, detect):
        result = detect([1.0] * (2 * MIN_SEGMENT))
        assert result.num_changes == 0

    def test_bad_min_segment_raises(self, detect):
        # The minimum segment is the module's; a detector takes none.
        with pytest.raises(TypeError):
            detect([1.0] * 8, min_segment=0)

    def test_segments_partition_signal(self, detect):
        signal = noisy_steps([1.0, 9.0], seg_len=60, seed=5)
        result = detect(signal)
        segs = result.segments
        assert segs[0][0] == 0
        assert segs[-1][1] == len(signal)
        for (a, b), (c, d) in zip(segs, segs[1:]):
            assert b == c

    def test_high_penalty_suppresses_detection(self, detect):
        # The BIC penalty outweighs a shift well inside the noise.
        signal = noisy_steps([10.0, 10.1], seg_len=60, seed=6)
        result = detect(signal)
        assert result.num_changes == 0


class TestPeltSpecifics:
    def test_pelt_exactness_on_clean_steps(self):
        signal = np.concatenate([np.zeros(50), np.ones(50) * 10])
        result = pelt(signal)
        assert result.breakpoints == (50,)


class TestCostBatch:
    """The vectorized cost paths must match the scalar ones exactly --
    the search's ties (hence its breakpoints) depend on it."""

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=40)
        cost = L2Cost(x)
        ends = 37
        starts = np.arange(0, ends - 1)
        batch = cost.cost_batch(starts, ends)
        for s, value in zip(starts, batch):
            assert value == cost.cost(int(s), ends)

    def test_batch_varying_ends(self):
        rng = np.random.default_rng(12)
        cost = L2Cost(rng.normal(size=30))
        ends = np.arange(6, 30)
        batch = cost.cost_batch(3, ends)
        for e, value in zip(ends, batch):
            assert value == cost.cost(3, int(e))


def _reference_penalty(x):
    """``default_penalty`` in Python floats."""
    diffs = [b - a for a, b in zip(x, x[1:])]
    centre = statistics.median(diffs)
    mad = statistics.median([abs(d - centre) for d in diffs])
    sigma = max(mad / 0.6745 / math.sqrt(2.0), 1e-12)
    return 2.0 * sigma * sigma * math.log(len(x))


def _reference_partition(x, penalty, min_segment=MIN_SEGMENT):
    """Optimal partitioning in plain Python floats, no numpy: every
    admissible last breakpoint is tried for every prefix, in order, and
    only a strictly better one replaces the incumbent."""
    n = len(x)
    cum, cum2 = [0.0], [0.0]
    for v in x:
        cum.append(cum[-1] + v)
        cum2.append(cum2[-1] + v * v)

    def cost(a, b):
        m = b - a
        s, s2 = cum[b] - cum[a], cum2[b] - cum2[a]
        return max(0.0, s2 - s * s / m)

    f = [0.0] + [math.inf] * n
    prev = [0] * (n + 1)
    for t in range(min_segment, n + 1):
        for s in range(t - min_segment + 1):
            value = f[s] + cost(s, t)
            if value + penalty < f[t]:
                f[t], prev[t] = value + penalty, s
    bps, t = [], prev[n]
    while t > 0:
        bps.append(t)
        t = prev[t]
    return tuple(sorted(bps))


def _penalized_cost(x, breakpoints, penalty):
    cost = L2Cost(x)
    edges = [0, *breakpoints, len(x)]
    return (sum(cost.cost(a, b) for a, b in zip(edges, edges[1:]))
            + penalty * len(breakpoints))


def _ndt_flow(seed, index):
    record = SyntheticNdtGenerator(seed=seed).generate_shard(index, 1)
    return throughput_rows(record.records)[0]


#: NDT flows on which PELT's pruning, at the level-shift detector's
#: minimum segment, discarded the winning candidate: (signal, optimum,
#: the answer pruning gave).  The raw search is the detector's at a
#: relative-shift floor of 0, which keeps every breakpoint.
PRUNING_COUNTEREXAMPLES = {
    "seed1-flow816": (_ndt_flow(1, 816), (18,), (14, 18)),
    "seed20230-flow401": (_ndt_flow(20230, 401), (7, 30), (7, 30, 34)),
}


class TestPeltExactness:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_unpruned_dp(self, seed):
        rng = np.random.default_rng(seed)
        levels = rng.choice([0.0, 5.0, 12.0], size=3)
        x = np.concatenate([rng.normal(lvl, 1.0, 25) for lvl in levels])
        result = pelt(x)
        assert result.penalty == _reference_penalty(x.tolist())
        assert result.breakpoints \
            == _reference_partition(x.tolist(), result.penalty)

    @pytest.mark.parametrize("case", sorted(PRUNING_COUNTEREXAMPLES))
    def test_beats_what_pruning_returned(self, case):
        x, optimum, pruned = PRUNING_COUNTEREXAMPLES[case]
        result = throughput_level_shift(x, min_relative_shift=0.0)
        assert result.breakpoints == optimum
        assert (_penalized_cost(x, optimum, result.penalty)
                < _penalized_cost(x, pruned, result.penalty))


@st.composite
def signal_batches(draw):
    """(rows, min_segment): constant rows (every total an exact tie),
    rows with 0-3 planted shifts with and without noise, and pure
    noise, mixed in one batch, at either minimum segment a search
    runs at."""
    min_segment = draw(st.sampled_from([MIN_SEGMENT,
                                        LEVEL_SHIFT_MIN_SEGMENT]))
    n = draw(st.integers(max(2 * min_segment, 4), 200))
    kinds = draw(st.lists(
        st.sampled_from(["constant", "steps", "noisy_steps", "noise"]),
        min_size=1, max_size=64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        row = np.full(n, float(rng.integers(-3, 4)))
        if kind in ("steps", "noisy_steps"):
            for at in rng.integers(1, n, size=rng.integers(0, 4)):
                row[at:] += float(rng.integers(-20, 21))
        if kind in ("noisy_steps", "noise"):
            row += rng.normal(0.0, 1.0, n)
        rows.append(row)
    return np.stack(rows), min_segment


class TestBatchedKernel:
    """The search on a ``(flows, n)`` array is one pass over every
    candidate column of every row; a row's answer must be the answer of
    that row alone, which must be the optimum the plain-Python search
    finds -- at each minimum segment a search runs at."""

    @settings(max_examples=40, deadline=None)
    @given(signal_batches())
    def test_batch_equals_rows_alone_equals_scalar_reference(self, batch):
        rows, min_segment = batch
        together = _optimal_partition_rows(rows, min_segment)
        assert len(together) == len(rows)
        for row, result in zip(rows, together):
            alone = _optimal_partition_rows(row[None, :], min_segment)[0]
            assert result == alone
            expected = _reference_penalty(row.tolist())
            assert result.penalty == expected
            assert type(result.penalty) is float
            assert result.breakpoints == _reference_partition(
                row.tolist(), expected, min_segment)

    def test_level_shift_batch_equals_rows_alone(self):
        rng = np.random.default_rng(21)
        rows = np.stack([noisy_steps(levels, seg_len=13, seed=i)
                         for i, levels in enumerate(
                             [[100.0, 40.0, 90.0], [100.0, 104.0, 100.0],
                              [5.0, 5.0, 5.0], [10.0, 80.0, 81.0]])])
        rows[2] = rng.normal(50.0, 4.0, rows.shape[1])
        together = throughput_level_shift(rows, min_relative_shift=0.25)
        assert together == [throughput_level_shift(
            row, min_relative_shift=0.25) for row in rows]
        assert [r.num_changes for r in together] == [2, 0, 0, 1]

    def test_short_batch_gives_one_empty_result_per_row(self):
        results = throughput_level_shift(np.ones((3, 7)))
        assert [r.breakpoints for r in results] == [(), (), ()]
        assert throughput_level_shift(np.ones((0, 40))) == []

    def test_three_dimensional_signal_rejected(self):
        with pytest.raises(AnalysisError):
            pelt(np.ones((2, 3, 16)))


class TestLevelShiftFilter:
    def test_short_signal_reports_the_penalty_it_was_given(self):
        # Too short to search: no breakpoint, at an infinite penalty.
        result = throughput_level_shift([1.0] * 5)
        assert result.breakpoints == () and result.penalty == float("inf")

    def test_small_shift_filtered_out(self):
        signal = noisy_steps([100.0, 104.0], seg_len=100, noise=0.5, seed=8)
        result = throughput_level_shift(signal, min_relative_shift=0.2)
        assert result.num_changes == 0

    def test_large_shift_kept(self):
        signal = noisy_steps([100.0, 40.0], seg_len=100, noise=0.5, seed=9)
        result = throughput_level_shift(signal, min_relative_shift=0.2)
        assert result.num_changes >= 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False), min_size=4, max_size=120))
def test_property_breakpoints_sorted_and_in_range(values):
    result = pelt(values)
    bps = result.breakpoints
    assert list(bps) == sorted(bps)
    assert all(0 < bp < len(values) for bp in bps)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=10, max_value=60),
       st.floats(min_value=5.0, max_value=50.0),
       st.integers(min_value=0, max_value=1000))
def test_property_detects_planted_shift(seg_len, magnitude, seed):
    signal = noisy_steps([0.0, magnitude], seg_len=seg_len,
                         noise=0.2, seed=seed)
    result = pelt(signal)
    assert result.num_changes >= 1
    assert any(abs(bp - seg_len) <= max(3, seg_len // 10)
               for bp in result.breakpoints)

"""Offline change-point detection.

The paper's §3.1 searches M-Lab flows for throughput level shifts,
citing the survey of Truong, Oudre & Vayatis (Signal Processing 2020)
[60].  We implement the two workhorse algorithms from that survey:

* :func:`binary_segmentation` -- greedy recursive splitting; fast and
  simple, approximate.
* :func:`pelt` -- the exact penalized optimum, searched for a whole
  batch of equal-length signals at once.  It keeps the survey's name
  but not the pruning of Killick et al. 2012: every flow here has at
  most a few dozen points, so the plain O(n^2) optimal partitioning is
  cheap, and it is exact where pruning with a minimum segment is not.

Both use a piecewise-constant (L2 / Gaussian mean-shift) cost, which is
the right model for "did this flow's achieved throughput level change".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from .stats import median


class L2Cost:
    """Sum of squared deviations from the segment mean.

    cost(a, b) over signal x = sum_{a<=i<b} (x_i - mean(x[a:b]))^2,
    computed in O(1) per query from prefix sums -- of the signal, or,
    given a ``(rows, n)`` array, of every row (``cumsum`` along the last
    axis adds in the same order either way, so a row's sums do not
    depend on its neighbours).
    """

    def __init__(self, signal: np.ndarray):
        x = np.asarray(signal, dtype=float)
        if x.ndim not in (1, 2):
            raise AnalysisError("signal must be one- or two-dimensional")
        self.n = x.shape[-1]
        sums = np.cumsum([x, x * x], axis=-1)
        self._both = np.concatenate(
            [np.zeros_like(sums[..., :1]), sums], axis=-1)
        self._cum, self._cum2 = self._both

    def cost(self, a: int, b: int) -> float:
        """Cost of the segment ``signal[a:b]``."""
        n = b - a
        if n <= 0:
            return 0.0
        s = self._cum[b] - self._cum[a]
        s2 = self._cum2[b] - self._cum2[a]
        return max(0.0, s2 - s * s / n)

    def cost_batch(self, starts, ends) -> np.ndarray:
        """Vectorized :meth:`cost` over arrays of segment bounds.

        ``starts`` and ``ends`` broadcast against each other, and every
        resulting segment must be non-empty.  Identical arithmetic to
        the scalar path (same IEEE-754 operations on the same prefix
        sums), so results are bit-for-bit equal.
        """
        starts = np.asarray(starts)
        ends = np.asarray(ends)
        hi = self._both.take(ends, axis=-1)
        lo = self._both.take(starts, axis=-1)
        n, s, s2 = ends - starts, hi[0] - lo[0], hi[1] - lo[1]
        return np.maximum(0.0, s2 - s * s / n)


def default_penalty(signal: np.ndarray):
    """BIC-style penalty: 2 * sigma^2 * log(n), with sigma estimated
    robustly from first differences (median absolute deviation).  A
    ``(rows, n)`` array gives one penalty per row."""
    x = np.asarray(signal, dtype=float)
    n = x.shape[-1]
    if n < 4:
        return np.full(x.shape[:-1], np.inf)[()]
    diffs = np.diff(x)
    mad = median(np.abs(diffs - np.expand_dims(median(diffs), -1)))
    sigma = np.maximum(mad / 0.6745 / math.sqrt(2.0), 1e-12)
    return 2.0 * sigma * sigma * math.log(n)


@dataclass(frozen=True)
class ChangePointResult:
    """Detected change points and bookkeeping.

    Attributes:
        breakpoints: sorted indices i where a new segment starts
            (0 < i < n); empty if the signal is one level throughout.
        segments: (start, end) index pairs covering the signal.
        penalty: the penalty value used.
    """

    breakpoints: tuple[int, ...]
    n: int
    penalty: float

    @property
    def segments(self) -> tuple[tuple[int, int], ...]:
        edges = [0, *self.breakpoints, self.n]
        return tuple((edges[i], edges[i + 1]) for i in range(len(edges) - 1))

    @property
    def num_changes(self) -> int:
        return len(self.breakpoints)


def _check_length(n: int, min_segment: int) -> None:
    """Reject signals that cannot hold two segments.

    Raises :class:`AnalysisError` (never an ``IndexError`` from deep
    inside the dynamic program) for empty and tiny inputs.
    """
    if n < 2 * min_segment:
        raise AnalysisError(
            f"signal of length {n} is too short for change-point "
            f"detection with min_segment={min_segment} "
            f"(need at least {2 * min_segment} points)")


def _optimal_partition_rows(x: np.ndarray,
                            min_segment: int) -> list[ChangePointResult]:
    """Optimal partitioning of every row of the ``(rows, n)`` array
    ``x`` at once, each row at its :func:`default_penalty`.

    f[r, t] = optimal penalized cost of x[r, :t]; prev[r, t] = last
    breakpoint before t.  Every admissible last breakpoint s <= t -
    min_segment is tried for every t -- no candidate is ever pruned, so
    the answer is the exact optimum.  ``argmin`` resolves ties to the
    first (lowest) s, each row's totals depend on that row alone, so a
    row's result never depends on its neighbours.
    """
    cost = L2Cost(x)  # rejects an array of three or more axes
    rows, n = x.shape
    _check_length(n, min_segment)
    penalty = np.broadcast_to(np.asarray(default_penalty(x), dtype=float),
                              (rows,))
    f = np.full((rows, n + 1), np.inf)
    f[:, 0] = 0.0
    prev = np.zeros((rows, n + 1), dtype=np.int64)
    per_change = penalty[:, None]
    for t in range(min_segment, n + 1):
        last = t - min_segment + 1
        totals = (f[:, :last] + cost.cost_batch(np.arange(last), [t])
                  + per_change)
        f[:, t] = totals.min(axis=1)
        prev[:, t] = totals.argmin(axis=1)

    results = []
    for back, row_penalty in zip(prev.tolist(), penalty.tolist()):
        breakpoints = []
        t = back[n]
        while t > 0:
            breakpoints.append(t)
            t = back[t]
        results.append(ChangePointResult(tuple(sorted(breakpoints)), n,
                                         row_penalty))
    return results


#: Shortest segment (samples) :func:`pelt` and
#: :func:`binary_segmentation` admit.
MIN_SEGMENT = 2


def pelt(signal):
    """Exact penalized change-point detection.

    Minimises the L2 cost plus :func:`default_penalty` (a robust BIC)
    per change point over every segmentation of at least
    :data:`MIN_SEGMENT` points per segment.  The name is the survey's;
    the search is optimal partitioning without PELT's pruning, which
    with a minimum segment > 1 can discard a candidate that still wins.

    Args:
        signal: 1-D array-like, or a ``(flows, n)`` batch of
            equal-length signals searched in one pass.

    Returns:
        :class:`ChangePointResult` with the optimal breakpoints; for a
        batch, a list of them, row ``i`` equal to ``pelt(signal[i])``.

    Raises:
        AnalysisError: if the signal is shorter than ``2*MIN_SEGMENT``.
    """
    x = np.asarray(signal, dtype=float)
    results = _optimal_partition_rows(np.atleast_2d(x), MIN_SEGMENT)
    return results if x.ndim == 2 else results[0]


def binary_segmentation(signal) -> ChangePointResult:
    """Greedy top-down change-point detection.

    Recursively split at the point with the largest cost reduction
    until no split beats :func:`default_penalty`.

    Raises:
        AnalysisError: if the signal is shorter than ``2*MIN_SEGMENT``.
    """
    x = np.asarray(signal, dtype=float)
    n = len(x)
    _check_length(n, MIN_SEGMENT)
    penalty = default_penalty(x)
    cost = L2Cost(x)

    def best_split(a: int, b: int) -> tuple[float, int]:
        # Vectorized scan over every admissible split point; ties
        # resolve to the first (lowest) index, like the scalar loop.
        splits = np.arange(a + MIN_SEGMENT, b - MIN_SEGMENT + 1)
        if len(splits) == 0:
            return 0.0, -1
        gains = (cost.cost(a, b) - cost.cost_batch(a, splits)
                 - cost.cost_batch(splits, b))
        best = int(np.argmax(gains))
        if gains[best] <= 0.0:
            return 0.0, -1
        return float(gains[best]), int(splits[best])

    breakpoints: list[int] = []
    queue = [(0, n)]
    while queue:
        # Split the segment offering the biggest gain first.
        gains = [(best_split(a, b), (a, b)) for a, b in queue]
        gains.sort(key=lambda item: item[0][0], reverse=True)
        (gain, idx), (a, b) = gains[0]
        queue.remove((a, b))
        if idx < 0 or gain <= penalty:
            continue
        breakpoints.append(idx)
        queue.extend([(a, idx), (idx, b)])
    return ChangePointResult(tuple(sorted(breakpoints)), n, penalty)


#: Shortest segment (samples) :func:`throughput_level_shift` admits.
LEVEL_SHIFT_MIN_SEGMENT = 4


def throughput_level_shift(signal, min_relative_shift: float = 0.2):
    """The §3.1 detector: change points that are *meaningful* throughput
    level shifts.

    Runs :func:`pelt`'s search, then keeps only breakpoints where the
    mean level changes by at least ``min_relative_shift`` of the larger
    side -- filtering the small wiggles that would otherwise count as
    "contention".

    A flow too short to hold two segments trivially has no level shift,
    so (unlike the raw detectors, which raise) this returns an empty
    result for short signals.  Like :func:`pelt`, a ``(flows, n)``
    batch is searched in one pass and gives a list, one result per row.
    """
    x = np.asarray(signal, dtype=float)
    rows = np.atleast_2d(x)
    n = rows.shape[1]
    if n < 2 * LEVEL_SHIFT_MIN_SEGMENT:
        results = [ChangePointResult((), n, float("inf"))] * len(rows)
    else:
        results = []
        for row, raw in zip(rows, _optimal_partition_rows(
                rows, LEVEL_SHIFT_MIN_SEGMENT)):
            kept = []
            edges = [0, *raw.breakpoints, n]
            for i, bp in enumerate(raw.breakpoints):
                left = row[edges[i]:bp].mean()
                right = row[bp:edges[i + 2]].mean()
                scale = max(abs(left), abs(right), 1e-12)
                if abs(left - right) / scale >= min_relative_shift:
                    kept.append(bp)
            results.append(ChangePointResult(tuple(kept), n, raw.penalty))
    return results if x.ndim == 2 else results[0]

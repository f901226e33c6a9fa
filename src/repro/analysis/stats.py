"""Distribution statistics: empirical CDFs, percentiles, bootstrap CIs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class Cdf:
    """An empirical CDF.

    Attributes:
        values: sorted sample values.
        fractions: cumulative fraction at each value (ends at 1.0).
    """

    values: np.ndarray
    fractions: np.ndarray

    @classmethod
    def from_samples(cls, samples) -> "Cdf":
        x = np.sort(np.asarray(samples, dtype=float))
        if len(x) == 0:
            raise AnalysisError("cannot build a CDF from no samples")
        frac = np.arange(1, len(x) + 1, dtype=float) / len(x)
        return cls(values=x, fractions=frac)

    def quantile(self, q: float) -> float:
        """Value at cumulative fraction ``q`` (0 < q <= 1)."""
        if not 0 < q <= 1:
            raise AnalysisError(f"quantile must be in (0, 1]: {q}")
        idx = int(np.searchsorted(self.fractions, q))
        idx = min(idx, len(self.values) - 1)
        return float(self.values[idx])

    def fraction_below(self, value: float) -> float:
        """Fraction of samples <= ``value``."""
        return float(np.searchsorted(self.values, value, side="right")
                     / len(self.values))

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def points(self, max_points: int = 200) -> list[tuple[float, float]]:
        """Downsampled (value, fraction) pairs for plotting/CSV export."""
        n = len(self.values)
        if n <= max_points:
            idx = np.arange(n)
        else:
            idx = np.unique(np.linspace(0, n - 1, max_points).astype(int))
        return [(float(self.values[i]), float(self.fractions[i]))
                for i in idx]


#: Default :class:`CdfSketch` binning, sized for throughput samples:
#: log-spaced from 100 bytes/s to 10 GB/s at ~3.7% relative resolution.
SKETCH_LO = 1e2
SKETCH_HI = 1e10
SKETCH_BINS = 512


@dataclass(frozen=True)
class CdfSketch:
    """A mergeable, fixed-memory CDF summary.

    A log-spaced histogram plus the exact min/max.  All state is
    integer counts and order-free extrema, so :meth:`merge` is exactly
    commutative, associative, and deterministic -- sketches built from
    any sharding of the same samples are byte-identical once merged.
    That is what lets NDT pipeline runs at any chunk size compare
    equal (:meth:`repro.ndt.Fig2Result.aggregate_fingerprint`), at the
    cost of quantiles only being accurate to the bin width.

    Attributes:
        lo / hi / bins: binning geometry; sketches merge only when it
            matches.
        counts: ``bins + 2`` integers -- underflow, the bins, overflow.
        vmin / vmax: exact sample extrema (``None`` when empty).
        total: number of samples absorbed.
    """

    lo: float = SKETCH_LO
    hi: float = SKETCH_HI
    bins: int = SKETCH_BINS
    counts: tuple[int, ...] = ()
    vmin: float | None = None
    vmax: float | None = None
    total: int = 0

    def __post_init__(self):
        if not (0 < self.lo < self.hi):
            raise AnalysisError(
                f"sketch needs 0 < lo < hi: {self.lo}, {self.hi}")
        if self.bins < 1:
            raise AnalysisError(f"sketch needs >= 1 bin: {self.bins}")
        if not self.counts:
            object.__setattr__(self, "counts", (0,) * (self.bins + 2))
        elif len(self.counts) != self.bins + 2:
            raise AnalysisError(
                f"sketch counts must have {self.bins + 2} entries, "
                f"got {len(self.counts)}")

    def _edges(self) -> np.ndarray:
        return np.logspace(np.log10(self.lo), np.log10(self.hi),
                           self.bins + 1)

    # -- construction ----------------------------------------------------

    def add_samples(self, samples) -> "CdfSketch":
        """A new sketch with ``samples`` absorbed (self is unchanged)."""
        x = np.asarray(samples, dtype=float)
        if x.ndim != 1:
            x = x.reshape(-1)
        if len(x) == 0:
            return self
        if np.any(~np.isfinite(x)):
            raise AnalysisError("sketch samples must be finite")
        idx = np.searchsorted(self._edges(), x, side="right")
        fresh = np.bincount(idx, minlength=self.bins + 2)
        counts = tuple(int(c + f)
                       for c, f in zip(self.counts, fresh))
        lo_x = float(np.min(x))
        hi_x = float(np.max(x))
        return CdfSketch(
            lo=self.lo, hi=self.hi, bins=self.bins, counts=counts,
            vmin=lo_x if self.vmin is None else min(self.vmin, lo_x),
            vmax=hi_x if self.vmax is None else max(self.vmax, hi_x),
            total=self.total + len(x))

    @classmethod
    def from_samples(cls, samples) -> "CdfSketch":
        return cls().add_samples(samples)

    def merge(self, other: "CdfSketch") -> "CdfSketch":
        """Combine two sketches over the same binning."""
        if (self.lo, self.hi, self.bins) != (other.lo, other.hi,
                                             other.bins):
            raise AnalysisError(
                "cannot merge sketches with different binning: "
                f"({self.lo}, {self.hi}, {self.bins}) vs "
                f"({other.lo}, {other.hi}, {other.bins})")
        mins = [v for v in (self.vmin, other.vmin) if v is not None]
        maxs = [v for v in (self.vmax, other.vmax) if v is not None]
        return CdfSketch(
            lo=self.lo, hi=self.hi, bins=self.bins,
            counts=tuple(a + b
                         for a, b in zip(self.counts, other.counts)),
            vmin=min(mins) if mins else None,
            vmax=max(maxs) if maxs else None,
            total=self.total + other.total)

    # -- queries ---------------------------------------------------------

    def _bin_value(self, index: int, edges: np.ndarray) -> float:
        """Representative value of counts[index], clamped to extrema."""
        if index <= 0:
            # An occupied underflow bin necessarily holds the global min.
            value = self.lo if self.vmin is None else self.vmin
        elif index >= self.bins + 1:
            value = self.hi if self.vmax is None else self.vmax
        else:  # geometric bin midpoint
            value = float(np.sqrt(edges[index - 1] * edges[index]))
        if self.vmin is not None:
            value = min(max(value, self.vmin), self.vmax)
        return value

    def quantile(self, q: float) -> float:
        """Approximate value at cumulative fraction ``q`` (0 < q <= 1)."""
        if not 0 < q <= 1:
            raise AnalysisError(f"quantile must be in (0, 1]: {q}")
        if self.total == 0:
            raise AnalysisError("cannot query an empty sketch")
        target = q * self.total
        cum = np.cumsum(self.counts)
        index = int(np.searchsorted(cum, target))
        return self._bin_value(index, self._edges())

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def fraction_below(self, value: float) -> float:
        """Approximate fraction of samples <= ``value``."""
        if self.total == 0:
            raise AnalysisError("cannot query an empty sketch")
        index = int(np.searchsorted(self._edges(), value, side="right"))
        return float(sum(self.counts[:index + 1]) / self.total)

    def points(self, max_points: int = 200) -> list[tuple[float, float]]:
        """(value, cumulative fraction) pairs for plotting/CSV export.

        Same shape as :meth:`Cdf.points`; one point per occupied bin,
        downsampled to ``max_points``.
        """
        if self.total == 0:
            raise AnalysisError("cannot query an empty sketch")
        edges = self._edges()
        cum = 0
        pts = []
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            cum += count
            pts.append((self._bin_value(index, edges),
                        cum / self.total))
        if len(pts) > max_points:
            idx = np.unique(np.linspace(0, len(pts) - 1,
                                        max_points).astype(int))
            pts = [pts[i] for i in idx]
        return pts


def median(a):
    """Median over the last axis: ``np.median(a, axis=-1)`` to the bit.

    It is numpy's own algorithm -- one partition on the middle one or
    two positions and the last, then ``(lo + hi) / 2`` -- less the NaN
    check numpy runs through ``numpy.ma``, whose first import costs a
    process ~20 ms of CPU and 1.3 MB of RSS.  A NaN still propagates:
    the partition puts any NaN of a row last, and that row's median is
    that NaN.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    if n == 0:
        raise AnalysisError("cannot take the median of no samples")
    mid = n // 2
    part = np.partition(a, [mid, -1] if n % 2 else [mid - 1, mid, -1],
                        axis=-1)
    # numpy's mean sums from +0.0, so its median of -0.0s is +0.0.
    result = (part[..., mid] + 0.0 if n % 2
              else (part[..., mid - 1] + part[..., mid] + 0.0) / 2)
    last = part[..., -1]
    nan = np.isnan(last)
    if nan.any():
        result = np.where(nan, last, result)
    return result[()]  # a scalar for one row, as np.median gives


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100) of ``samples``."""
    if not 0 <= q <= 100:
        raise AnalysisError(f"percentile must be in [0, 100]: {q}")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


#: Resamples :func:`bootstrap_ci` draws, from a generator seeded 0.
BOOTSTRAP_RESAMPLES = 1000


def bootstrap_ci(samples, statistic=np.mean, confidence: float = 0.95
                 ) -> tuple[float, float, float]:
    """Bootstrap confidence interval over :data:`BOOTSTRAP_RESAMPLES`
    resamples (deterministic: the generator is seeded 0).

    Returns:
        (point_estimate, ci_low, ci_high).
    """
    x = np.asarray(samples, dtype=float)
    if len(x) == 0:
        raise AnalysisError("cannot bootstrap no samples")
    if not 0 < confidence < 1:
        raise AnalysisError(f"confidence must be in (0, 1): {confidence}")
    rng = np.random.default_rng(0)
    estimates = np.array([
        statistic(rng.choice(x, size=len(x), replace=True))
        for _ in range(BOOTSTRAP_RESAMPLES)
    ])
    alpha = (1.0 - confidence) / 2.0
    return (float(statistic(x)),
            float(np.quantile(estimates, alpha)),
            float(np.quantile(estimates, 1.0 - alpha)))


def summarize(samples) -> dict[str, float]:
    """Mean/median/p10/p90/min/max summary of a sample set."""
    x = np.asarray(samples, dtype=float)
    if len(x) == 0:
        raise AnalysisError("cannot summarize no samples")
    return {
        "n": float(len(x)),
        "mean": float(np.mean(x)),
        "median": float(np.median(x)),
        "p10": float(np.percentile(x, 10)),
        "p90": float(np.percentile(x, 90)),
        "min": float(np.min(x)),
        "max": float(np.max(x)),
        "std": float(np.std(x)),
    }

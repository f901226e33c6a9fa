"""Hierarchical metrics registry: counters, gauges, histograms.

Components register named instruments into a :class:`MetricsRegistry`
(usually the process-global one from :func:`registry`).  Names are
dotted paths ("pool.task_s", "sim.events_processed"); :meth:`scoped`
gives a component its own namespace without threading prefixes through
call sites.

Snapshots are plain JSON-able dicts, and :meth:`MetricsRegistry.merge`
folds one snapshot into a registry **commutatively** -- counters and
histogram buckets add, gauges take the max -- so per-worker snapshots
from :class:`repro.runtime.pool.ParallelExecutor` can be merged in any
completion order with identical results.

Histograms use *fixed* bucket bounds chosen at creation, so percentile
queries are O(buckets), merges are exact, and two histograms created
with the same bounds are always mergeable.
"""

from __future__ import annotations

import bisect
import math
from typing import Mapping, Sequence

from ..errors import AnalysisError, ConfigError


def default_buckets() -> tuple[float, ...]:
    """Log-spaced bounds from 1 microsecond to ~100 ks.

    Suitable for latencies/durations in seconds; values above the last
    bound land in the overflow bucket.
    """
    return tuple(round(10.0 ** (exp / 4.0), 9) for exp in range(-24, 21))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters never decrease)."""
        if amount < 0:
            raise ConfigError(
                f"counter {self.name!r} cannot decrease: {amount}")
        self.value += amount


class Gauge:
    """Point-in-time value (last set wins locally; merge takes the max)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with percentile bounds.

    Args:
        name: registry name.
        buckets: strictly increasing bucket *upper bounds*; an implicit
            overflow bucket catches values above the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, buckets: Sequence[float] | None = None):
        self.name = name
        bounds = tuple(buckets) if buckets is not None else default_buckets()
        if not bounds:
            raise ConfigError(f"histogram {name!r} needs at least one bucket")
        if any(later <= earlier
               for later, earlier in zip(bounds[1:], bounds)):
            raise ConfigError(
                f"histogram {name!r} bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 = overflow bucket
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        if math.isnan(value):
            raise AnalysisError(f"histogram {self.name!r}: NaN observation")
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile_bounds(self, q: float) -> tuple[float, float]:
        """(lower, upper) bounds of the bucket holding the q-quantile.

        The true q-quantile of the observed values is guaranteed to lie
        within the returned interval; ``upper`` is ``inf`` when the
        quantile fell into the overflow bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1]: {q}")
        if self.count == 0:
            raise AnalysisError(
                f"histogram {self.name!r} has no observations")
        # Index (1-based) of the q-th observation, as numpy's "lower"
        # interpolation would pick it.
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= target:
                lower = self.bounds[i - 1] if i > 0 else float("-inf")
                upper = self.bounds[i] if i < len(self.bounds) \
                    else float("inf")
                return lower, upper
        raise AnalysisError("unreachable: cumulative < count")  # pragma: no cover

    def percentile(self, q: float) -> float:
        """Conservative q-quantile estimate (the bucket's upper bound)."""
        return self.percentile_bounds(q)[1]


class _Scope:
    """Prefix proxy: ``registry.scoped("pool").counter("tasks")``
    registers ``pool.tasks``."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str):
        self._registry = registry
        self._prefix = prefix

    def counter(self, name: str) -> Counter:
        return self._registry.counter(f"{self._prefix}.{name}")

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(f"{self._prefix}.{name}")

    def histogram(self, name: str,
                  buckets: Sequence[float] | None = None) -> Histogram:
        return self._registry.histogram(f"{self._prefix}.{name}",
                                        buckets=buckets)


class MetricsRegistry:
    """Named instruments plus snapshot/merge plumbing.

    >>> reg = MetricsRegistry()
    >>> reg.counter("jobs").inc(3)
    >>> reg.scoped("pool").gauge("workers").set(8)
    >>> sorted(reg.snapshot())
    ['jobs', 'pool.workers']
    """

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise ConfigError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  buckets: Sequence[float] | None = None) -> Histogram:
        histogram = self._get(name, Histogram,
                              lambda: Histogram(name, buckets=buckets))
        if buckets is not None and tuple(buckets) != histogram.bounds:
            raise ConfigError(
                f"histogram {name!r} already registered with different "
                "bucket bounds")
        return histogram

    def scoped(self, prefix: str) -> _Scope:
        """A namespaced view registering ``prefix.<name>`` instruments."""
        return _Scope(self, prefix)

    def __len__(self) -> int:
        return len(self._instruments)

    def reset(self) -> None:
        """Drop every registered instrument."""
        self._instruments.clear()

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """JSON-able state of every instrument, sorted by name."""
        out: dict[str, dict] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out[name] = {"type": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                out[name] = {"type": "gauge", "value": instrument.value}
            else:
                out[name] = {
                    "type": "histogram",
                    "bounds": list(instrument.bounds),
                    "counts": list(instrument.counts),
                    "count": instrument.count,
                    "sum": instrument.total,
                }
        return out

    def merge(self, snapshot: Mapping[str, Mapping]) -> None:
        """Fold a :meth:`snapshot` into this registry (commutative).

        Counters and histogram buckets add; gauges keep the maximum, so
        merging worker snapshots is independent of completion order.
        """
        for name, entry in snapshot.items():
            kind = entry["type"]
            if kind == "counter":
                self.counter(name).inc(entry["value"])
            elif kind == "gauge":
                # A gauge absent locally adopts the snapshot's value
                # outright -- a fresh instrument's 0.0 is "no reading",
                # not a reading of zero, and must not win the max
                # against a negative incoming value.
                absent = name not in self._instruments
                gauge = self.gauge(name)
                gauge.set(entry["value"] if absent
                          else max(gauge.value, entry["value"]))
            elif kind == "histogram":
                histogram = self.histogram(name,
                                           buckets=entry["bounds"])
                if list(histogram.bounds) != list(entry["bounds"]):
                    raise ConfigError(
                        f"histogram {name!r}: merge with mismatched "
                        "bucket bounds")
                for i, n in enumerate(entry["counts"]):
                    histogram.counts[i] += n
                histogram.count += entry["count"]
                histogram.total += entry["sum"]
            else:
                raise ConfigError(f"unknown instrument type {kind!r}")


#: The process-global registry instrumented components report into.
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return REGISTRY

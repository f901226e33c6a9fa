"""Rate and delay time series derived from packet-level observations.

Measurement code attaches a :class:`RateMeter` as a link tap to turn
packet deliveries into a binned rate series (the ground-truth
cross-traffic signal for elasticity experiments), and uses the jitter
helpers for the §5.2 token-bucket study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import AnalysisError


class RateMeter:
    """Bin packet sizes into fixed intervals to produce a rate series.

    Attach via ``link.add_tap(meter.on_packet)``; every flow counts.
    """

    #: Bin size in seconds.
    bin_width = 0.01

    def __init__(self):
        self._bins: dict[int, int] = {}
        self.total_bytes = 0

    def on_packet(self, packet, now: float) -> None:
        """Link-tap entry point."""
        self.add(now, packet.size)

    def add(self, now: float, nbytes: int) -> None:
        """Record ``nbytes`` observed at time ``now``."""
        idx = int(now / self.bin_width)
        self._bins[idx] = self._bins.get(idx, 0) + nbytes
        self.total_bytes += nbytes

    def series(self, t_start: float, t_end: float
               ) -> tuple[np.ndarray, np.ndarray]:
        """(times, rates) with rates in bytes/second over [t_start, t_end)."""
        first = int(t_start / self.bin_width)
        last = int(np.ceil(t_end / self.bin_width))
        idx = np.arange(first, last)
        times = (idx + 0.5) * self.bin_width
        rates = np.array([self._bins.get(int(i), 0) for i in idx],
                         dtype=float) / self.bin_width
        return times, rates


class DelayMeter:
    """Record one-way delays (arrival time minus ``sent_time``) of
    delivered packets, for jitter analysis.  Attach as a tap at the
    delivery point."""

    def __init__(self, flow_filter: Optional[Callable[[str], bool]] = None):
        self.flow_filter = flow_filter
        self.times: list[float] = []
        self.delays: list[float] = []

    def on_packet(self, packet, now: float) -> None:
        if self.flow_filter is not None and not self.flow_filter(
                packet.flow_id):
            return
        self.times.append(now)
        self.delays.append(now - packet.sent_time)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.times), np.asarray(self.delays)


def ewma(values, alpha: float) -> np.ndarray:
    """Exponentially weighted moving average of a series."""
    if not 0 < alpha <= 1:
        raise AnalysisError(f"alpha must be in (0, 1]: {alpha}")
    x = np.asarray(values, dtype=float)
    out = np.empty_like(x)
    acc = 0.0
    for i, v in enumerate(x):
        acc = v if i == 0 else (1 - alpha) * acc + alpha * v
        out[i] = acc
    return out


def jitter_metrics(delays) -> dict[str, float]:
    """Jitter summary of a delay series.

    Reports RFC 3550 interarrival jitter (EWMA of successive delay
    differences), delay span percentiles (p99 - p1), and the standard
    deviation -- the §5.2 quantities of interest.
    """
    d = np.asarray(delays, dtype=float)
    if len(d) < 2:
        raise AnalysisError("need at least two delay samples")
    rfc3550 = 0.0
    for diff in np.abs(np.diff(d)):
        rfc3550 += (diff - rfc3550) / 16.0
    return {
        "rfc3550_jitter": float(rfc3550),
        "delay_p50": float(np.percentile(d, 50)),
        "delay_p99": float(np.percentile(d, 99)),
        "delay_span_p99_p1": float(np.percentile(d, 99)
                                   - np.percentile(d, 1)),
        "delay_std": float(np.std(d)),
        "mean_abs_diff": float(np.mean(np.abs(np.diff(d)))),
    }

"""TCP Vegas: delay-based congestion avoidance.

Vegas compares the expected rate (cwnd / base RTT) against the actual
rate (cwnd / current RTT) and keeps the difference -- the number of
packets it estimates it has queued at the bottleneck -- between
``alpha`` and ``beta``.
"""

from __future__ import annotations

from ..errors import ConfigError
from .base import AckSample, CongestionControl


class VegasCca(CongestionControl):
    """Vegas with once-per-RTT window adjustment.

    Args:
        alpha: grow the window below this many queued packets.
        beta: shrink the window above this many queued packets.
        gamma: leave slow start once the queue estimate exceeds this.
    """

    name = "vegas"

    def __init__(self, initial_cwnd: float = 10.0, alpha: float = 2.0,
                 beta: float = 4.0, gamma: float = 1.0):
        if not 0 < alpha <= beta:
            raise ConfigError("need 0 < alpha <= beta")
        self._cwnd = float(initial_cwnd)
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.min_cwnd = 2.0
        self._in_slow_start = True
        self._next_adjust_time = 0.0

    @property
    def cwnd(self) -> float:
        return self._cwnd

    @property
    def in_slow_start(self) -> bool:
        return self._in_slow_start

    def _queue_estimate(self, sample: AckSample) -> float | None:
        if sample.min_rtt is None or sample.rtt is None or sample.rtt <= 0:
            return None
        expected = self._cwnd / sample.min_rtt
        actual = self._cwnd / sample.rtt
        return (expected - actual) * sample.min_rtt  # packets in queue

    def on_ack(self, sample: AckSample) -> None:
        if sample.in_recovery:
            return
        diff = self._queue_estimate(sample)
        if self._in_slow_start:
            # Double every other RTT (half-rate slow start) until the
            # queue estimate crosses gamma.
            self._cwnd += sample.acked_bytes / self.mss / 2.0
            if diff is not None and diff > self.gamma:
                self._in_slow_start = False
                self._cwnd = max(self._cwnd - diff, self.min_cwnd)
            return
        if diff is None or sample.now < self._next_adjust_time:
            return
        rtt = sample.srtt if sample.srtt is not None else sample.rtt or 0.1
        self._next_adjust_time = sample.now + rtt
        if diff < self.alpha:
            self._cwnd += 1.0
        elif diff > self.beta:
            self._cwnd = max(self._cwnd - 1.0, self.min_cwnd)

    def on_loss(self, now: float, lost_bytes: int) -> None:
        self._in_slow_start = False
        self._cwnd = max(self._cwnd * 0.75, self.min_cwnd)

    def on_rto(self, now: float) -> None:
        self._in_slow_start = False
        self._cwnd = max(2.0, self.min_cwnd)

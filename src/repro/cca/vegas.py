"""TCP Vegas: delay-based congestion avoidance.

Vegas compares the expected rate (cwnd / base RTT) against the actual
rate (cwnd / current RTT) and keeps the difference -- the number of
packets it estimates it has queued at the bottleneck -- between
``alpha`` and ``beta``.
"""

from __future__ import annotations

from .base import AckSample, CongestionControl


class VegasCca(CongestionControl):
    """Vegas with once-per-RTT window adjustment."""

    name = "vegas"
    #: Grow the window below this many queued packets.
    alpha = 2.0
    #: Shrink the window above this many queued packets.
    beta = 4.0
    #: Leave slow start once the queue estimate exceeds this.
    gamma = 1.0

    def __init__(self):
        self._cwnd = 10.0
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

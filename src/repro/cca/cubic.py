"""TCP Cubic congestion control (RFC 8312).

The window grows as a cubic function of time since the last loss,
plateauing near ``w_max`` (the window where loss last occurred) and then
probing beyond it.  A TCP-friendly region keeps Cubic at least as
aggressive as Reno at small BDPs.
"""

from __future__ import annotations

from .base import AckSample, CongestionControl


class CubicCca(CongestionControl):
    """Cubic with fast convergence, per RFC 8312 defaults."""

    name = "cubic"
    #: Cubic scaling constant (packets/second^3).
    c = 0.4
    #: Multiplicative decrease factor (window *= beta on loss).
    beta = 0.7

    def __init__(self):
        self._cwnd = 10.0
        self.ssthresh = float("inf")
        self.min_cwnd = 2.0
        self.w_max = 0.0
        self._k = 0.0
        self._epoch_start: float | None = None
        self._w_est = 0.0          # TCP-friendly (Reno-tracking) estimate

    @property
    def cwnd(self) -> float:
        return self._cwnd

    @property
    def in_slow_start(self) -> bool:
        return self._cwnd < self.ssthresh

    def on_ack(self, sample: AckSample) -> None:
        if sample.in_recovery:
            return
        # RFC 3465-style byte counting cap (see RenoCca.on_ack).
        acked_packets = min(sample.acked_bytes / self.mss, 2.0)
        if self.in_slow_start:
            self._cwnd += acked_packets
            if self._cwnd > self.ssthresh:
                self._cwnd = self.ssthresh
            return
        rtt = sample.srtt if sample.srtt is not None else 0.1
        now = sample.now
        if self._epoch_start is None:
            self._epoch_start = now
            if self._cwnd < self.w_max:
                self._k = ((self.w_max - self._cwnd) / self.c) ** (1.0 / 3.0)
            else:
                self._k = 0.0
                self.w_max = self._cwnd
            self._w_est = self._cwnd

        t = now - self._epoch_start + rtt  # target one RTT ahead (RFC 8312)
        w_cubic = self.c * (t - self._k) ** 3 + self.w_max

        # TCP-friendly region: emulate Reno's growth from epoch start.
        reno_alpha = 3.0 * (1.0 - self.beta) / (1.0 + self.beta)
        self._w_est += reno_alpha * acked_packets / self._cwnd

        target = max(w_cubic, self._w_est)
        if target > self._cwnd:
            self._cwnd = min(
                target,
                self._cwnd + (target - self._cwnd) / self._cwnd * acked_packets)
        else:
            # Stay put; Cubic grows at a token rate in the concave dip.
            self._cwnd += acked_packets / (100.0 * self._cwnd)

    def _multiplicative_decrease(self) -> None:
        if self._cwnd < self.w_max:
            self.w_max = self._cwnd * (1.0 + self.beta) / 2.0
        else:
            self.w_max = self._cwnd
        self._cwnd = max(self._cwnd * self.beta, self.min_cwnd)
        self.ssthresh = self._cwnd
        self._epoch_start = None

    def on_loss(self, now: float, lost_bytes: int) -> None:
        self._multiplicative_decrease()

    def on_rto(self, now: float) -> None:
        self._multiplicative_decrease()
        self._cwnd = 1.0

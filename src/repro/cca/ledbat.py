"""LEDBAT: Low Extra Delay Background Transport (RFC 6817).

The scavenger CCA (BitTorrent uTP, macOS updates): target a small
fixed queueing delay and *yield entirely* to any other traffic that
pushes the delay past the target.  Relevant to the paper twice over:
software updates are §2.3's canonical example of persistently
backlogged flows, yet deployed update clients often use LEDBAT
precisely so they do not contend -- endpoint politeness as another
contention-eliminating mechanism.

cwnd += GAIN * off_target / cwnd per ACK, with
off_target = (TARGET - queuing_delay) / TARGET, and a loss halving.
"""

from __future__ import annotations

from .base import AckSample, CongestionControl


class LedbatCca(CongestionControl):
    """LEDBAT window management."""

    name = "ledbat"
    #: Target queueing delay (RFC 6817 says <= 100 ms; deployments use
    #: 25-60 ms).
    target = 0.025

    def __init__(self):
        self._cwnd = 2.0
        self.min_cwnd = 1.0

    @property
    def cwnd(self) -> float:
        return self._cwnd

    def on_ack(self, sample: AckSample) -> None:
        if sample.in_recovery:
            return
        if sample.rtt is None or sample.min_rtt is None:
            return
        queuing = max(0.0, sample.rtt - sample.min_rtt)
        off_target = (self.target - queuing) / self.target
        acked_packets = min(sample.acked_bytes / self.mss, 2.0)
        self._cwnd += off_target * acked_packets / self._cwnd
        self._cwnd = max(self._cwnd, self.min_cwnd)

    def on_loss(self, now: float, lost_bytes: int) -> None:
        self._cwnd = max(self._cwnd / 2.0, self.min_cwnd)

    def on_rto(self, now: float) -> None:
        self._cwnd = self.min_cwnd

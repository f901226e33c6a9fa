"""TCP Reno / NewReno congestion control.

Classic AIMD: slow start doubles the window every RTT until
``ssthresh``; congestion avoidance adds one packet per RTT; fast
retransmit halves the window; a timeout collapses it to one segment.

The endpoint implements NewReno-style recovery mechanics (partial-ACK
retransmission, pipe deflation); this class owns only the window
arithmetic, which Reno and NewReno share.  ECN echoes are treated as
loss signals at most once per RTT (RFC 3168).
"""

from __future__ import annotations

from ..errors import ConfigError
from ..obs.bus import EventKind
from .base import AckSample, CongestionControl


class RenoCca(CongestionControl):
    """Reno AIMD window management.

    Args:
        initial_cwnd: initial window (packets); RFC 6928's IW10 default.
    """

    name = "reno"

    def __init__(self, initial_cwnd: float = 10.0):
        if initial_cwnd < 1:
            raise ConfigError(f"initial_cwnd must be >= 1: {initial_cwnd}")
        self._cwnd = float(initial_cwnd)
        self.ssthresh = float("inf")
        self.min_cwnd = 2.0
        self._last_ecn_reaction = float("-inf")

    @property
    def cwnd(self) -> float:
        return self._cwnd

    @property
    def in_slow_start(self) -> bool:
        return self._cwnd < self.ssthresh

    def on_ack(self, sample: AckSample) -> None:
        if sample.in_recovery:
            return
        if sample.ecn_echo:
            self._react_to_ecn(sample)
            return
        # RFC 3465 appropriate byte counting: a cumulative ACK that jumps
        # a SACK-repaired hole may cover dozens of packets; cap the
        # window growth credit at 2 segments per ACK.
        acked_packets = min(sample.acked_bytes / self.mss, 2.0)
        if self.in_slow_start:
            self._cwnd += acked_packets
            if self._cwnd > self.ssthresh:
                self._cwnd = self.ssthresh
        else:
            self._cwnd += acked_packets / self._cwnd

    def _react_to_ecn(self, sample: AckSample) -> None:
        rtt = sample.srtt if sample.srtt is not None else 0.1
        if sample.now - self._last_ecn_reaction >= rtt:
            self._last_ecn_reaction = sample.now
            self._multiplicative_decrease()

    def _multiplicative_decrease(self) -> None:
        self.ssthresh = max(self._cwnd / 2.0, self.min_cwnd)
        self._cwnd = self.ssthresh

    def on_loss(self, now: float, lost_bytes: int) -> None:
        self._multiplicative_decrease()
        self._trace(now, EventKind.CWND, self._cwnd, {"cause": "loss"})

    def on_rto(self, now: float) -> None:
        self.ssthresh = max(self._cwnd / 2.0, self.min_cwnd)
        self._cwnd = 1.0
        self._trace(now, EventKind.CWND, self._cwnd, {"cause": "rto"})


class NewRenoCca(RenoCca):
    """NewReno: Reno window arithmetic + the endpoint's partial-ACK
    recovery (which all senders in this package get).  Kept as its own
    class so experiment configs can name the algorithm precisely."""

    name = "newreno"

"""DCTCP: Data Center TCP (Alizadeh et al., SIGCOMM 2010).

The paper's §2.3 notes that some datacenter designs use CCA mechanisms
to allocate bandwidth (citing DCTCP first).  DCTCP reacts to the
*fraction* of ECN-marked packets per window, cutting the window
proportionally to congestion extent rather than by half -- which keeps
queues tiny on ECN-marking switches (our :class:`~repro.qdisc.red.RedQueue`
with a step threshold stands in for those).

cwnd <- cwnd * (1 - alpha/2), with alpha an EWMA of the marked
fraction per RTT.
"""

from __future__ import annotations

from .base import AckSample, CongestionControl


class DctcpCca(CongestionControl):
    """DCTCP window management."""

    name = "dctcp"
    #: EWMA gain for the marked-fraction estimate (RFC 8257: 1/16).
    g = 1.0 / 16.0

    def __init__(self):
        self._cwnd = 10.0
        self.alpha = 1.0          # assume the worst until measured
        self.ssthresh = float("inf")
        self.min_cwnd = 2.0
        self._acked_bytes_window = 0
        self._marked_bytes_window = 0
        self._window_end_delivered = 0
        self._reduced_this_window = False

    @property
    def cwnd(self) -> float:
        return self._cwnd

    @property
    def in_slow_start(self) -> bool:
        return self._cwnd < self.ssthresh

    def on_ack(self, sample: AckSample) -> None:
        self._acked_bytes_window += sample.acked_bytes
        if sample.ecn_echo:
            self._marked_bytes_window += sample.acked_bytes

        # Once per window of data: fold the marked fraction into alpha.
        if sample.delivered_total >= self._window_end_delivered:
            if self._acked_bytes_window > 0:
                fraction = (self._marked_bytes_window
                            / self._acked_bytes_window)
                self.alpha = (1 - self.g) * self.alpha + self.g * fraction
            self._acked_bytes_window = 0
            self._marked_bytes_window = 0
            self._window_end_delivered = (sample.delivered_total
                                          + sample.inflight_bytes)
            self._reduced_this_window = False

        if sample.in_recovery:
            return
        if sample.ecn_echo and not self._reduced_this_window:
            self._reduced_this_window = True
            if self.in_slow_start:
                self.ssthresh = self._cwnd
            self._cwnd = max(self._cwnd * (1 - self.alpha / 2.0),
                             self.min_cwnd)
            return
        acked_packets = min(sample.acked_bytes / self.mss, 2.0)
        if self.in_slow_start:
            self._cwnd += acked_packets
            if self._cwnd > self.ssthresh:
                self._cwnd = self.ssthresh
        else:
            self._cwnd += acked_packets / self._cwnd

    def on_loss(self, now: float, lost_bytes: int) -> None:
        self.ssthresh = max(self._cwnd / 2.0, self.min_cwnd)
        self._cwnd = self.ssthresh

    def on_rto(self, now: float) -> None:
        self.ssthresh = max(self._cwnd / 2.0, self.min_cwnd)
        self._cwnd = 1.0

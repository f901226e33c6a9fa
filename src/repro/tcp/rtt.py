"""RTT estimation and retransmission timeout (RFC 6298)."""

from __future__ import annotations

from ..errors import ConfigError


class RttEstimator:
    """Jacobson/Karels smoothed RTT with RFC 6298 RTO computation."""

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0
    K = 4.0
    #: Lower clamp on the RTO (Linux uses 200 ms).
    MIN_RTO = 0.2
    #: Upper clamp on the RTO.
    MAX_RTO = 60.0

    def __init__(self):
        self.srtt: float | None = None
        self.rttvar: float | None = None
        self.min_rtt: float | None = None
        self.latest_rtt: float | None = None
        #: current retransmission timeout (seconds); RFC 6298's 1 s
        #: before the first RTT sample
        self.rto = 1.0
        self.samples = 0

    def update(self, rtt: float) -> None:
        """Fold one RTT sample (seconds) into the estimator."""
        if rtt <= 0:
            raise ConfigError(f"rtt sample must be positive: {rtt}")
        self.latest_rtt = rtt
        self.samples += 1
        if self.min_rtt is None or rtt < self.min_rtt:
            self.min_rtt = rtt
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = ((1 - self.BETA) * self.rttvar
                           + self.BETA * abs(self.srtt - rtt))
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        raw = self.srtt + self.K * self.rttvar
        self.rto = min(max(raw, self.MIN_RTO), self.MAX_RTO)

    def backoff(self) -> None:
        """Exponential RTO backoff after a timeout fires."""
        self.rto = min(self.rto * 2.0, self.MAX_RTO)

"""Copa: practical delay-based congestion control (Arun & Balakrishnan,
NSDI '18).

Copa targets a sending rate of ``1 / (delta * d_q)`` packets per
second, where ``d_q`` is the measured queueing delay (standing RTT
minus minimum RTT).  The window moves toward the corresponding target
with a velocity that doubles while the direction is stable.  The paper
(§3.2) cites Copa as the other mode-switching CCA: its default mode
checks whether cross traffic follows Copa's delay oscillations; our
implementation exposes the same default-mode dynamics.
"""

from __future__ import annotations

from .base import AckSample, CongestionControl
from .filters import WindowedExtremum


class CopaCca(CongestionControl):
    """Copa default mode."""

    name = "copa"
    #: Aggressiveness; 0.5 targets ~2 packets of queueing.
    delta = 0.5

    def __init__(self):
        self._cwnd = 10.0
        self.min_cwnd = 2.0
        self._velocity = 1.0
        self._direction = 0  # +1 growing, -1 shrinking
        self._last_direction_update = 0.0
        self._standing_rtt = WindowedExtremum(window=0.1, mode="min")
        self._srtt: float | None = None
        self._in_slow_start = True

    @property
    def cwnd(self) -> float:
        return self._cwnd

    @property
    def pacing_rate(self) -> float | None:
        # Copa paces at 2 * cwnd / RTT to avoid bursts.
        if self._srtt is None or self._srtt <= 0:
            return None
        return 2.0 * self._cwnd * self.mss / self._srtt

    def on_ack(self, sample: AckSample) -> None:
        if sample.rtt is None or sample.min_rtt is None:
            return
        now = sample.now
        self._srtt = sample.srtt
        # Standing RTT: min over the last srtt/2.
        window = (sample.srtt or sample.rtt) / 2.0
        self._standing_rtt.window = max(window, 1e-3)
        self._standing_rtt.update(now, sample.rtt)
        standing = self._standing_rtt.value or sample.rtt

        d_q = standing - sample.min_rtt
        acked_packets = sample.acked_bytes / self.mss

        if d_q <= 1e-6:
            # No measurable queue: the target rate is unbounded; grow.
            if self._in_slow_start:
                self._cwnd += acked_packets
            else:
                self._cwnd += (self._velocity * acked_packets
                               / (self.delta * self._cwnd))
            self._update_direction(+1, now)
            return

        target_rate = 1.0 / (self.delta * d_q)           # packets/second
        current_rate = self._cwnd / standing             # packets/second
        if self._in_slow_start:
            if current_rate < target_rate:
                self._cwnd += acked_packets
                return
            self._in_slow_start = False
        if current_rate < target_rate:
            self._cwnd += (self._velocity * acked_packets
                           / (self.delta * self._cwnd))
            self._update_direction(+1, now)
        else:
            self._cwnd -= (self._velocity * acked_packets
                           / (self.delta * self._cwnd))
            self._cwnd = max(self._cwnd, self.min_cwnd)
            self._update_direction(-1, now)

    def _update_direction(self, direction: int, now: float) -> None:
        rtt = self._srtt if self._srtt is not None else 0.1
        if direction == self._direction:
            if now - self._last_direction_update >= rtt:
                self._velocity = min(self._velocity * 2.0, 32.0)
                self._last_direction_update = now
        else:
            self._direction = direction
            self._velocity = 1.0
            self._last_direction_update = now

    def on_loss(self, now: float, lost_bytes: int) -> None:
        # Copa's default mode reduces only mildly on loss.
        self._in_slow_start = False
        self._cwnd = max(self._cwnd / 2.0, self.min_cwnd)
        self._velocity = 1.0

    def on_rto(self, now: float) -> None:
        self._in_slow_start = False
        self._cwnd = self.min_cwnd
        self._velocity = 1.0

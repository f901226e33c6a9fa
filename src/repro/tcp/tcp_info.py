"""Linux-``tcp_info``-style instrumentation.

M-Lab NDT archives a ``TCPInfo`` snapshot stream per measurement; the
paper's §3.1 analysis keys on a handful of its fields (``AppLimited``,
``RWndLimited``, ``BusyTime``, throughput, RTT).  This module maintains
the same cumulative counters on our simulated transport so that records
collected from the simulator are drop-in inputs to the NDT pipeline.

All durations are kept in **seconds** internally and exported in
microseconds (as Linux does) by :meth:`TcpInfoTracker.snapshot`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..units import to_usec


class LimitState(enum.Enum):
    """What is limiting the sender right now."""

    IDLE = "idle"
    BUSY = "busy"                  # data outstanding, window open
    CWND_LIMITED = "cwnd_limited"  # congestion window is the binding cap
    RWND_LIMITED = "rwnd_limited"  # receiver window is the binding cap
    APP_LIMITED = "app_limited"    # nothing to send


@dataclass(frozen=True)
class TcpInfoSnapshot:
    """One instant of connection state, M-Lab NDT field conventions.

    Durations are microseconds, rates bytes/second, RTTs seconds.
    """

    elapsed_time_us: float
    bytes_acked: int
    bytes_sent: int
    bytes_retrans: int
    busy_time_us: float
    rwnd_limited_us: float
    app_limited_us: float
    cwnd_limited_us: float
    min_rtt_s: float | None
    smoothed_rtt_s: float | None
    throughput_bps: float
    retransmits: int


class TcpInfoTracker:
    """Accumulates limit-state durations and byte counters for a sender.

    The owning endpoint calls :meth:`set_state` whenever its limiting
    factor changes and :meth:`snapshot` to export NDT-style rows.
    """

    def __init__(self, start_time: float = 0.0):
        self.start_time = start_time
        self.bytes_acked = 0
        self.bytes_sent = 0
        self.bytes_retrans = 0
        self.retransmits = 0
        #: what limits the sender now (written only by :meth:`set_state`)
        self.state = LimitState.IDLE
        self._state_since = start_time
        self._durations: dict[LimitState, float] = {
            state: 0.0 for state in LimitState}
        self._last_snapshot_time = start_time
        self._last_snapshot_acked = 0

    def set_state(self, state: LimitState, now: float) -> None:
        """Transition to ``state``, charging elapsed time to the old one."""
        self._durations[self.state] += max(0.0, now - self._state_since)
        self.state = state
        self._state_since = now

    def duration(self, state: LimitState, now: float) -> float:
        """Total seconds spent in ``state`` up to ``now``."""
        extra = max(0.0, now - self._state_since) \
            if state is self.state else 0.0
        return self._durations[state] + extra

    def snapshot(self, now: float, min_rtt_s: float | None = None,
                 smoothed_rtt_s: float | None = None) -> TcpInfoSnapshot:
        """Export the current counters as an NDT-style snapshot row.

        ``throughput_bps`` is the mean rate since the *previous*
        snapshot (NDT computes deltas the same way).
        """
        interval = now - self._last_snapshot_time
        delta = self.bytes_acked - self._last_snapshot_acked
        throughput = delta / interval if interval > 0 else 0.0
        self._last_snapshot_time = now
        self._last_snapshot_acked = self.bytes_acked

        busy = (self.duration(LimitState.BUSY, now)
                + self.duration(LimitState.CWND_LIMITED, now)
                + self.duration(LimitState.RWND_LIMITED, now))
        return TcpInfoSnapshot(
            elapsed_time_us=to_usec(now - self.start_time),
            bytes_acked=self.bytes_acked,
            bytes_sent=self.bytes_sent,
            bytes_retrans=self.bytes_retrans,
            busy_time_us=to_usec(busy),
            rwnd_limited_us=to_usec(
                self.duration(LimitState.RWND_LIMITED, now)),
            app_limited_us=to_usec(
                self.duration(LimitState.APP_LIMITED, now)),
            cwnd_limited_us=to_usec(
                self.duration(LimitState.CWND_LIMITED, now)),
            min_rtt_s=min_rtt_s,
            smoothed_rtt_s=smoothed_rtt_s,
            throughput_bps=throughput,
            retransmits=self.retransmits,
        )

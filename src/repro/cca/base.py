"""Congestion control algorithm (CCA) interface.

The transport endpoint owns reliability (loss detection, RTO,
retransmission); the CCA owns *how much* may be in flight and *how
fast* it leaves.  A CCA exposes two knobs:

* :attr:`CongestionControl.cwnd` -- congestion window in packets
  (float; fractional windows matter for AIMD at small BDPs).
* :attr:`CongestionControl.pacing_rate` -- bytes/second, or None for
  pure window-based ACK clocking.

and receives per-event callbacks with an :class:`AckSample` carrying
the delivery-rate sample machinery rate-based CCAs (BBR, Nimbus) need.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from ..obs.bus import BUS as _OBS
from ..units import DEFAULT_MSS


@dataclass(slots=True)
class AckSample:
    """Everything a CCA may want to know about one incoming ACK.

    One is built per ACK, positionally, by the sender; it is read-only
    by convention (a frozen dataclass pays an ``object.__setattr__``
    per field per ACK).

    Attributes:
        now: arrival time of the ACK.
        acked_bytes: payload bytes newly cumulatively acknowledged.
        rtt: RTT sample from this ACK (None if not measurable, e.g. for
            an ACK of a retransmitted segment).
        min_rtt: connection's minimum RTT so far (None before the first
            sample).
        srtt: smoothed RTT (None before the first sample).
        inflight_bytes: payload bytes still outstanding after this ACK.
        delivery_rate: BBR-style delivery rate sample (bytes/second),
            None when not computable.
        delivery_rate_app_limited: the rate sample was taken while the
            sender was application-limited, so it underestimates the
            path (BBR ignores such samples for its max filter).
        delivered_total: total payload bytes delivered so far.
        in_recovery: the endpoint is in fast recovery.
        ecn_echo: the ACK echoes an ECN congestion mark.
    """

    now: float
    acked_bytes: int
    rtt: float | None
    min_rtt: float | None
    srtt: float | None
    inflight_bytes: int
    delivery_rate: float | None
    delivery_rate_app_limited: bool
    delivered_total: int
    in_recovery: bool
    ecn_echo: bool = False


class CongestionControl(abc.ABC):
    """Base class for congestion control algorithms."""

    #: human-readable algorithm name (subclasses override)
    name = "base"

    #: flow label attached to trace events; set via :meth:`bind_flow`
    _obs_flow = ""

    #: payload bytes per segment, the unit ACKed bytes are counted in;
    #: the sender's own MSS once :meth:`bind_flow` has run
    mss = DEFAULT_MSS

    # -- binding and tracing -----------------------------------------------

    def bind_flow(self, flow_id: str, mss: int) -> None:
        """Adopt the owning sender's flow id (the label on this CCA's
        trace events) and MSS.

        Called by the transport endpoint at construction; an unbound
        CCA counts in :data:`~repro.units.DEFAULT_MSS` segments and
        traces with an empty flow field.
        """
        self._obs_flow = flow_id
        self.mss = mss

    def _trace(self, now: float, kind: str, value: float = 0.0,
               meta: dict | None = None) -> None:
        """Emit a trace event attributed to this CCA, if tracing is on."""
        if _OBS.enabled:
            _OBS.emit(now, kind, f"cca:{self.name}", self._obs_flow,
                      value, meta)

    # -- knobs the endpoint reads ----------------------------------------

    @property
    @abc.abstractmethod
    def cwnd(self) -> float:
        """Congestion window, in packets."""

    @property
    def pacing_rate(self) -> float | None:
        """Pacing rate in bytes/second; None disables pacing."""
        return None

    # -- event callbacks ---------------------------------------------------

    def on_connection_start(self, now: float) -> None:
        """Connection established; initialize state."""

    def on_ack(self, sample: AckSample) -> None:
        """New data was cumulatively acknowledged."""

    def on_dup_ack(self, now: float) -> None:
        """A duplicate ACK arrived (before loss is declared)."""

    def on_loss(self, now: float, lost_bytes: int) -> None:
        """Loss detected via fast retransmit (entering recovery)."""

    def on_recovery_exit(self, now: float) -> None:
        """Fast recovery completed."""

    def on_rto(self, now: float) -> None:
        """Retransmission timeout fired."""

    def on_packet_sent(self, now: float, bytes_sent: int,
                       app_limited: bool) -> None:
        """A data segment left the sender."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pacing = self.pacing_rate
        pacing_str = f", pacing={pacing:.0f}B/s" if pacing else ""
        return f"<{type(self).__name__} cwnd={self.cwnd:.2f}{pacing_str}>"

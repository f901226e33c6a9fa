"""Slotted CSMA/CA shared-medium link for the packet backend.

:class:`MediumLink` replaces a dumbbell's bottleneck :class:`~repro.sim.link.Link`
with a contention medium: flows are mapped to *stations*, each station
owns its own egress qdisc, and stations arbitrate for airtime with the
classic DCF/EDCA machinery --

* **Carrier sensing / NAV deferral**: a station whose traffic arrives
  while the medium is busy defers until the current transmission's
  NAV expires (``medium.defer`` trace event).
* **Inter-frame spacing**: every contention round waits SIFS plus each
  station's per-class AIFS slots before its backoff countdown runs.
* **Binary-exponential backoff**: counters are drawn uniformly from
  ``[0, cw]``; a collision doubles ``cw`` (``min(2*cw + 1, cw_max)``)
  and a success resets it to ``cw_min`` -- the busy/idle arms of the
  ``ca_decision`` rules, with the priority classes tuning ``cw`` and
  AIFS per station.
* **Priority classes**: :class:`~repro.medium.config.MediumSpec`
  assigns each station an access class ("uniform" = all best-effort,
  "mixed" = odd stations run voice).

The countdown is *slot-jumped*, not ticked: each idle period schedules
one event at the earliest station's completion slot, so cost scales
with transmissions, not with 20 us slots.  All stations share one
global slot grid anchored at the start of the idle period, which is
what makes collisions (two counters expiring in the same slot) exact
integer coincidences -- and what makes the DES match Bianchi's slotted
model closely enough to pin in tests.

Per-station RNG streams derive from the scenario seed by the same
SHA-256 scheme as :mod:`repro.sim.rng`, so runs are deterministic and
stations are decorrelated.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Optional

import numpy as np

from ..errors import ConfigError
from ..medium.config import (PER_TX_OVERHEAD, SIFS, SLOT_TIME, MacClass,
                             MediumSpec)
from ..obs.bus import BUS as _OBS, EventKind
from ..qdisc.base import Qdisc
from ..qdisc.fifo import DropTailQueue
from .engine import Simulator
from .link import PacketSink, _Egress
from .packet import Packet


def _station_seed(seed: int, index: int) -> int:
    """Stable per-station RNG seed (same scheme as repro.sim.rng)."""
    digest = hashlib.sha256(f"medium:{seed}:station:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


class _Station:
    """One contending station: its queue, MAC state, and RNG."""

    __slots__ = ("index", "mac", "qdisc", "rng", "head", "backoff", "cw",
                 "offset", "registered", "txops", "collisions", "defers")

    def __init__(self, index: int, mac: MacClass, qdisc: Qdisc,
                 seed: int):
        self.index = index
        self.mac = mac
        self.qdisc = qdisc
        self.rng = np.random.default_rng(_station_seed(seed, index))
        self.head: Optional[Packet] = None
        self.cw = mac.cw_min
        self.backoff = int(self.rng.integers(0, self.cw + 1))
        self.offset = 0
        self.registered = False
        self.txops = 0
        self.collisions = 0
        self.defers = 0

    @property
    def backlogged(self) -> bool:
        return self.head is not None or len(self.qdisc) > 0

    def redraw(self) -> int:
        """Draw a fresh backoff counter from the current window."""
        self.backoff = int(self.rng.integers(0, self.cw + 1))
        return self.backoff


class MediumLink(_Egress):
    """A CSMA/CA shared medium serving per-station queues.

    Drop-in for :class:`~repro.sim.link.Link` as a dumbbell bottleneck:
    exposes ``send`` / ``add_tap`` / ``delivered_bytes`` /
    ``flow_bytes`` / ``queue_delay`` / ``rate``.  Instead of one shared
    qdisc it owns ``n_stations`` per-station qdiscs (built by
    ``qdisc_factory``); flows are assigned to stations round-robin in
    order of first appearance, which is deterministic per run.

    Args:
        sim: the owning simulator.
        rate: raw medium bit-pipe rate (bytes/second).
        spec: station count and priority layout.
        delay: propagation delay (seconds) from the end of a successful
            transmission to its arrival at ``sink``.
        sink: downstream element receiving successful transmissions.
        qdisc_factory: builds one egress qdisc per station (default:
            100-packet DropTail each).
        seed: root seed for the per-station backoff RNG streams.
        name: label for stats and trace events.
    """

    def __init__(self, sim: Simulator, rate: float, spec: MediumSpec,
                 delay: float, sink: Optional[PacketSink] = None,
                 qdisc_factory: Optional[Callable[[], Qdisc]] = None,
                 seed: int = 0, name: str = "medium"):
        if rate <= 0:
            raise ConfigError(f"medium rate must be positive: {rate}")
        super().__init__(sim, sink, delay, name)
        self._rate = float(rate)
        self.spec = spec
        factory = qdisc_factory or (
            lambda: DropTailQueue(limit_packets=100))
        self.stations = [
            _Station(i, spec.station_class(i), factory(), seed)
            for i in range(spec.n_stations)]
        self._flow_station: dict[str, int] = {}
        self._next_assign = 0
        self._busy = False
        self._busy_until = 0.0
        self._idle_anchor = sim.now
        self._round_event = None
        self._in_flight: Optional[Packet] = None
        self.busy_time = 0.0
        self.collisions = 0
        self.txops = 0
        self._obs_src = f"medium:{name}"

    # -- Link-compatible surface ----------------------------------------

    @property
    def rate(self) -> float:
        """Raw medium rate (bytes/second); goodput is strictly lower."""
        return self._rate

    @property
    def queue_delay(self) -> float:
        """Aggregate backlog drained at the raw rate (optimistic bound)."""
        backlog = sum(st.qdisc.byte_length for st in self.stations)
        return backlog / self._rate

    @property
    def station_qdiscs(self) -> list[Qdisc]:
        """Every station's egress qdisc (for stats and invariants)."""
        return [st.qdisc for st in self.stations]

    def station_for(self, flow_id: str) -> int:
        """The station serving ``flow_id`` (assigned on first packet)."""
        station = self._flow_station.get(flow_id)
        if station is None:
            station = self._next_assign % len(self.stations)
            self._flow_station[flow_id] = station
            self._next_assign += 1
        return station

    # -- data path -------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Offer a packet to its station's egress queue."""
        st = self.stations[self.station_for(packet.flow_id)]
        was_backlogged = st.backlogged
        st.qdisc.enqueue(packet, self.sim.now)
        if was_backlogged or not st.backlogged:
            return  # already contending, or refused at admission
        self._activate(st)

    def _activate(self, st: _Station) -> None:
        """A station just became backlogged; join the arbitration."""
        now = self.sim.now
        if self._busy:
            # Carrier sense says busy: defer under the NAV until the
            # current transmission ends (_begin_idle registers us).
            st.defers += 1
            if _OBS.enabled:
                _OBS.emit(now, EventKind.MEDIUM_DEFER, self._obs_src,
                          value=self._busy_until - now,
                          meta={"station": st.index})
            return
        if not any(s.registered for s in self.stations):
            # Medium idle and uncontended: a fresh slot grid.
            self._idle_anchor = now
            st.offset = 0
        else:
            # Join the running idle period on the next grid slot.
            st.offset = int(math.ceil(
                (now - self._idle_anchor) / SLOT_TIME - 1e-9))
        st.registered = True
        self._schedule_round()

    def _due(self, st: _Station) -> int:
        return st.offset + st.mac.aifsn + st.backoff

    def _schedule_round(self) -> None:
        if self._round_event is not None:
            self._round_event.cancel()
            self._round_event = None
        dues = [self._due(st) for st in self.stations if st.registered]
        if not dues:
            return
        when = self._idle_anchor + SIFS + min(dues) * SLOT_TIME
        self._round_event = self.sim.schedule_at(
            max(when, self.sim.now), self._round_fire)

    def _round_fire(self) -> None:
        self._round_event = None
        contenders = [st for st in self.stations if st.registered]
        if not contenders:
            return
        due_min = min(self._due(st) for st in contenders)
        winners = []
        for st in contenders:
            if self._due(st) == due_min:
                winners.append(st)
            else:
                # Countdown slots this station burned while losing.
                counted = due_min - st.offset - st.mac.aifsn
                if counted > 0:
                    st.backoff -= min(st.backoff, counted)
        now = self.sim.now
        transmitting = []
        for st in winners:
            if st.head is None:
                st.head = st.qdisc.dequeue(now)
            if st.head is None:
                # Queue drained underneath us, or a token-gated qdisc
                # is holding its packets; poll again when it says so.
                st.registered = False
                ready = st.qdisc.next_ready_time(now)
                if ready is not None:
                    self.sim.schedule(max(1e-6, ready - now),
                                      lambda st=st: self._poll(st))
            else:
                transmitting.append(st)
        for st in self.stations:
            st.registered = False
        if not transmitting:
            self._restart_idle()
            return
        if len(transmitting) == 1:
            self._transmit(transmitting[0])
        else:
            self._collide(transmitting)

    def _transmit(self, st: _Station) -> None:
        now = self.sim.now
        packet = st.head
        st.head = None
        tx_time = packet.size / self._rate + PER_TX_OVERHEAD
        self._busy = True
        self._busy_until = now + tx_time
        self.busy_time += tx_time
        self.txops += 1
        st.txops += 1
        if _OBS.enabled:
            _OBS.emit(now, EventKind.MEDIUM_TXOP, self._obs_src,
                      packet.flow_id, packet.size,
                      meta={"station": st.index, "duration": tx_time})
        # Success: window resets, post-backoff drawn for the next frame.
        st.cw = st.mac.cw_min
        backoff = st.redraw()
        if _OBS.enabled:
            _OBS.emit(now, EventKind.MEDIUM_BACKOFF, self._obs_src,
                      value=backoff, meta={"station": st.index,
                                           "cw": st.cw})
        self._in_flight = packet
        self.sim.call_later(tx_time, self._tx_done)

    def _collide(self, stations: list[_Station]) -> None:
        now = self.sim.now
        duration = (max(st.head.size for st in stations) / self._rate
                    + PER_TX_OVERHEAD)
        for st in stations:
            st.collisions += 1
            st.cw = min(2 * st.cw + 1, st.mac.cw_max)
            backoff = st.redraw()
            if _OBS.enabled:
                _OBS.emit(now, EventKind.MEDIUM_COLLISION, self._obs_src,
                          st.head.flow_id, st.head.size,
                          meta={"station": st.index,
                                "duration": duration,
                                "colliders": len(stations)})
                _OBS.emit(now, EventKind.MEDIUM_BACKOFF, self._obs_src,
                          value=backoff, meta={"station": st.index,
                                               "cw": st.cw})
        self.collisions += 1
        self._busy = True
        self._busy_until = now + duration
        self.busy_time += duration
        self.sim.call_later(duration, self._begin_idle)

    def _poll(self, st: _Station) -> None:
        """Re-join a station whose gated qdisc may be ready now."""
        if st.registered or not st.backlogged or self._busy:
            return  # busy: _begin_idle re-registers backlogged stations
        self._activate(st)

    def _tx_done(self) -> None:
        packet = self._in_flight
        self._in_flight = None
        self._account(packet, self.sim.now)
        self._propagate(packet)
        self._begin_idle()

    def _begin_idle(self) -> None:
        self._busy = False
        self._restart_idle()

    def _restart_idle(self) -> None:
        """Start a fresh idle period; all backlogged stations contend."""
        self._idle_anchor = self.sim.now
        any_registered = False
        for st in self.stations:
            st.registered = st.backlogged
            st.offset = 0
            any_registered = any_registered or st.registered
        if any_registered:
            self._schedule_round()

"""Queue discipline (qdisc) interface.

A qdisc sits at a link's egress.  The link calls :meth:`Qdisc.enqueue`
when a packet arrives and :meth:`Qdisc.dequeue` whenever it is ready to
transmit.  Qdiscs never own the clock; the current time is passed in so
the same object can be unit-tested without a simulator.

Drop and mark counters are maintained uniformly here so experiments can
read loss statistics off any discipline, and every admission, dequeue,
drop, and mark is mirrored onto the :mod:`repro.obs` trace bus (when it
has subscribers) under this qdisc's unique ``obs_name``.
"""

from __future__ import annotations

import abc
import itertools
from typing import Callable, Optional

from typing import TYPE_CHECKING

from ..obs.bus import BUS as _OBS, EventKind

if TYPE_CHECKING:
    from ..sim.packet import Packet

#: metadata shared by every drop-after-enqueue event (allocated once;
#: drops are rare but bursts happen, and the dict is immutable by
#: convention -- subscribers must not mutate event.meta)
_ENQUEUED_DROP_META = {"enqueued": True}

_qdisc_ids = itertools.count(1)


class Qdisc(abc.ABC):
    """Abstract egress queue discipline."""

    def __init__(self):
        self.drops = 0
        self.dropped_bytes = 0
        # No packet qdisc marks ECN (DESIGN.md §7, deviation 5); the
        # count stays 0 and keeps its place in scenario outcomes.
        self.marks = 0
        self.enqueued = 0
        self.dequeued = 0
        self.dequeued_bytes = 0
        #: unique trace-bus source label; stable for this instance
        self.obs_name = f"qdisc:{type(self).__name__.lower()}-{next(_qdisc_ids)}"
        #: Optional observer invoked as ``fn(packet, now)`` on every drop.
        self.on_drop: Optional[Callable[[Packet, float], None]] = None

    @abc.abstractmethod
    def enqueue(self, packet: Packet, now: float) -> bool:
        """Offer ``packet`` to the queue.  Returns False if dropped."""

    @abc.abstractmethod
    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the next packet to transmit, if any."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of packets currently queued."""

    @property
    @abc.abstractmethod
    def byte_length(self) -> int:
        """Bytes currently queued."""

    def next_ready_time(self, now: float) -> Optional[float]:
        """Earliest time a queued packet may become transmittable.

        Rate-gated disciplines (token buckets) can hold packets even
        though the link is idle; they override this so the link knows
        when to poll again.  ``None`` means "whenever a packet arrives".
        """
        return None

    # -- helpers for subclasses -----------------------------------------
    #
    # Subclasses call these at the moment the corresponding thing
    # happens; the helpers keep the uniform counters and emit trace
    # events.  ``_record_drop(..., enqueued=True)`` distinguishes drops
    # of packets that previously occupied the queue (CoDel head drops,
    # longest-queue eviction) from admission refusals -- byte
    # conservation depends on that distinction.

    def _record_drop(self, packet: Packet, now: float,
                     enqueued: bool = False) -> None:
        self.drops += 1
        self.dropped_bytes += packet.size
        if _OBS.enabled:
            _OBS.emit(now, EventKind.DROP, self.obs_name, packet.flow_id,
                      packet.size,
                      _ENQUEUED_DROP_META if enqueued else None)
        if self.on_drop is not None:
            self.on_drop(packet, now)

    def _record_enqueue(self, packet: Packet, now: float) -> None:
        self.enqueued += 1
        if _OBS.enabled:
            _OBS.emit(now, EventKind.ENQUEUE, self.obs_name,
                      packet.flow_id, packet.size)

    def _record_dequeue(self, packet: Packet, now: float) -> None:
        self.dequeued += 1
        self.dequeued_bytes += packet.size
        if _OBS.enabled:
            _OBS.emit(now, EventKind.DEQUEUE, self.obs_name,
                      packet.flow_id, packet.size)

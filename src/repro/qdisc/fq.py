"""Deficit round-robin fair queueing (per-flow or per-user).

This is the mechanism the paper's §2.1 argues would "entirely eliminate
the role of CCA dynamics in determining bandwidth allocations": each
flow (or user) gets its own sub-queue served in deficit round-robin
order, which enforces (approximate) max-min fairness regardless of how
aggressive each flow's CCA is.

On overflow the packet at the tail of the *longest* sub-queue is dropped
(as in fq_codel), so a flow cannot hurt others by overfilling.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Optional

from ..errors import ConfigError
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..sim.packet import Packet
from .base import Qdisc


def by_flow(packet: Packet) -> str:
    """Classify packets per flow (the default)."""
    return packet.flow_id


def by_user(packet: Packet) -> str:
    """Classify packets per user, modelling per-subscriber isolation."""
    return packet.user_id


class _SubQueue:
    __slots__ = ("packets", "bytes", "deficit")

    def __init__(self):
        self.packets: deque[Packet] = deque()
        self.bytes = 0
        self.deficit = 0.0


class DrrFairQueue(Qdisc):
    """Deficit round-robin scheduler over dynamically created sub-queues.

    Args:
        limit_packets: total packet budget across all sub-queues.
        classify: maps a packet to its sub-queue key (flow or user).
    """

    #: Bytes added to a sub-queue's deficit per round; one MTU gives
    #: byte-accurate fairness for MTU-sized packets.
    quantum = 1514

    def __init__(self, limit_packets: int = 1000,
                 classify: Callable[[Packet], str] = by_flow):
        super().__init__()
        if limit_packets <= 0:
            raise ConfigError("limit_packets must be positive")
        self.limit_packets = limit_packets
        self.classify = classify
        self._subqueues: "OrderedDict[str, _SubQueue]" = OrderedDict()
        self._active: deque[str] = deque()
        self._total_packets = 0
        self._total_bytes = 0

    def _drop_from_longest(self, now: float) -> None:
        longest_key = max(self._subqueues,
                          key=lambda k: self._subqueues[k].bytes)
        sub = self._subqueues[longest_key]
        victim = sub.packets.pop()
        sub.bytes -= victim.size
        self._total_packets -= 1
        self._total_bytes -= victim.size
        self._record_drop(victim, now, enqueued=True)
        if not sub.packets:
            self._deactivate(longest_key)

    def _deactivate(self, key: str) -> None:
        try:
            self._active.remove(key)
        except ValueError:
            pass
        del self._subqueues[key]

    def enqueue(self, packet: Packet, now: float) -> bool:
        key = self.classify(packet)
        sub = self._subqueues.get(key)
        if sub is None:
            sub = _SubQueue()
            self._subqueues[key] = sub
            sub.deficit = 0.0
        if not sub.packets:
            if key in self._active:
                self._active.remove(key)
            self._active.append(key)
        packet.enqueue_time = now
        sub.packets.append(packet)
        sub.bytes += packet.size
        self._total_packets += 1
        self._total_bytes += packet.size
        self._record_enqueue(packet, now)
        dropped_self = False
        while self._total_packets > self.limit_packets:
            longest_key = max(self._subqueues,
                              key=lambda k: self._subqueues[k].bytes)
            if longest_key == key and self._subqueues[key].packets[-1] is packet:
                dropped_self = True
            self._drop_from_longest(now)
        return not dropped_self

    def dequeue(self, now: float) -> Optional[Packet]:
        while self._active:
            key = self._active[0]
            sub = self._subqueues.get(key)
            if sub is None or not sub.packets:
                self._active.popleft()
                if sub is not None:
                    del self._subqueues[key]
                continue
            head = sub.packets[0]
            if sub.deficit < head.size:
                sub.deficit += self.quantum
                self._active.rotate(-1)
                continue
            sub.packets.popleft()
            sub.bytes -= head.size
            sub.deficit -= head.size
            self._total_packets -= 1
            self._total_bytes -= head.size
            if not sub.packets:
                sub.deficit = 0.0
                self._active.popleft()
                del self._subqueues[key]
            self._record_dequeue(head, now)
            return head
        return None

    def __len__(self) -> int:
        return self._total_packets

    @property
    def byte_length(self) -> int:
        return self._total_bytes

"""DropTail FIFO queue -- the Internet's default discipline.

Limits may be expressed in packets, bytes, or both; an arriving packet
that would exceed either limit is dropped (tail drop).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..errors import ConfigError
from ..obs.bus import BUS as _OBS, EventKind
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..sim.packet import Packet
from .base import Qdisc


class DropTailQueue(Qdisc):
    """Tail-drop FIFO with a packet limit.

    Args:
        limit_packets: maximum queued packets.  There is no unbounded
            queue: it would let loss-based CCAs fill memory forever.
    """

    def __init__(self, limit_packets: int):
        super().__init__()
        if limit_packets <= 0:
            raise ConfigError(f"limit_packets must be positive: {limit_packets}")
        self.limit_packets = limit_packets
        self._queue: deque[Packet] = deque()
        self._bytes = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        if len(self._queue) >= self.limit_packets:
            self._record_drop(packet, now)
            return False
        packet.enqueue_time = now
        self._queue.append(packet)
        self._bytes += packet.size
        # The default discipline on every link of every path: the
        # counters and the trace emit of Qdisc._record_enqueue /
        # _record_dequeue, without their frames.
        self.enqueued += 1
        if _OBS.enabled:
            _OBS.emit(now, EventKind.ENQUEUE, self.obs_name,
                      packet.flow_id, packet.size)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        self.dequeued += 1
        self.dequeued_bytes += packet.size
        if _OBS.enabled:
            _OBS.emit(now, EventKind.DEQUEUE, self.obs_name,
                      packet.flow_id, packet.size)
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_length(self) -> int:
        return self._bytes

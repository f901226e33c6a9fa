"""CoDel (Controlled Delay) active queue management.

Implements the ACM Queue 2012 algorithm: track each packet's sojourn
time; once the sojourn time has exceeded ``target`` continuously for an
``interval``, enter dropping state and drop head-of-line packets at
intervals shrinking with the inverse square root of the drop count.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..sim.packet import Packet
from .base import Qdisc


class CoDelQueue(Qdisc):
    """CoDel with a hard packet limit.

    Args:
        limit_packets: hard tail-drop limit.
    """

    #: Acceptable standing queue delay (seconds).
    target = 0.005
    #: Sliding window (seconds) over which the minimum sojourn time must
    #: exceed ``target`` before dropping starts.
    interval = 0.100

    def __init__(self, limit_packets: int = 1000):
        super().__init__()
        self.limit_packets = limit_packets
        self._queue: deque[Packet] = deque()
        self._bytes = 0
        self._first_above_time = 0.0
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0
        self._last_drop_count = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        if len(self._queue) >= self.limit_packets:
            self._record_drop(packet, now)
            return False
        packet.enqueue_time = now
        self._queue.append(packet)
        self._bytes += packet.size
        self._record_enqueue(packet, now)
        return True

    def _control_law(self, t: float) -> float:
        return t + self.interval / math.sqrt(self._drop_count)

    def _should_drop(self, packet: Packet, now: float) -> bool:
        sojourn = now - packet.enqueue_time
        if sojourn < self.target or self._bytes <= 1500:
            self._first_above_time = 0.0
            return False
        if self._first_above_time == 0.0:
            self._first_above_time = now + self.interval
            return False
        return now >= self._first_above_time

    def _pop(self) -> Packet:
        packet = self._queue.popleft()
        self._bytes -= packet.size
        return packet

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            self._dropping = False
            return None
        packet = self._pop()
        drop_now = self._should_drop(packet, now)

        if self._dropping:
            if not drop_now:
                self._dropping = False
            else:
                while self._dropping and now >= self._drop_next:
                    self._record_drop(packet, now, enqueued=True)
                    self._drop_count += 1
                    if not self._queue:
                        self._dropping = False
                        return None
                    packet = self._pop()
                    if not self._should_drop(packet, now):
                        self._dropping = False
                    else:
                        self._drop_next = self._control_law(self._drop_next)
        elif drop_now:
            self._record_drop(packet, now, enqueued=True)
            self._dropping = True
            # Start the next drop sooner if we were recently dropping.
            delta = self._drop_count - self._last_drop_count
            if delta > 1 and now - self._drop_next < 16 * self.interval:
                self._drop_count = delta
            else:
                self._drop_count = 1
            self._drop_next = self._control_law(now)
            self._last_drop_count = self._drop_count
            if not self._queue:
                return None
            packet = self._pop()

        self._record_dequeue(packet, now)
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_length(self) -> int:
        return self._bytes

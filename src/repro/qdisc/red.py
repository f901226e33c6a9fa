"""Random Early Detection (RED).

Implements the classic Floyd/Jacobson gentle-RED variant: the average
queue size is an EWMA over instantaneous occupancy, and the drop
probability ramps linearly from 0 at ``min_thresh`` to ``max_p`` at
``max_thresh``, then to 1 at ``2 * max_thresh``.  RED drops; it never
marks ECN.  An arrival to an empty queue decays the average by one
EWMA step, however long the queue was idle (RED's idle-time
compensation needs the link rate, which no caller gives it).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from ..errors import ConfigError
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..sim.packet import Packet
from .base import Qdisc


class RedQueue(Qdisc):
    """Gentle RED queue, thresholds expressed in packets.

    Args:
        min_thresh / max_thresh: EWMA-occupancy thresholds (packets).
        limit_packets: hard tail-drop limit.
        seed: seed for the internal drop-decision RNG.
    """

    #: Drop probability at ``max_thresh``.
    max_p = 0.1
    #: EWMA weight for the average queue size.
    weight = 0.002

    def __init__(self, min_thresh: float, max_thresh: float,
                 limit_packets: int, seed: int = 0):
        super().__init__()
        if not 0 < min_thresh < max_thresh <= limit_packets:
            raise ConfigError(
                "need 0 < min_thresh < max_thresh <= limit_packets, got "
                f"{min_thresh}, {max_thresh}, {limit_packets}")
        self.min_thresh = min_thresh
        self.max_thresh = max_thresh
        self.limit_packets = limit_packets
        self._rng = np.random.default_rng(seed)
        self._queue: deque[Packet] = deque()
        self._bytes = 0
        self._avg = 0.0
        self._count_since_mark = -1

    def _update_average(self) -> None:
        self._avg += self.weight * (len(self._queue) - self._avg)

    def _drop_probability(self) -> float:
        if self._avg < self.min_thresh:
            return 0.0
        if self._avg < self.max_thresh:
            frac = (self._avg - self.min_thresh) / (self.max_thresh - self.min_thresh)
            return frac * self.max_p
        if self._avg < 2 * self.max_thresh:
            # "Gentle" region: ramp from max_p to 1.
            frac = (self._avg - self.max_thresh) / self.max_thresh
            return self.max_p + frac * (1.0 - self.max_p)
        return 1.0

    def enqueue(self, packet: Packet, now: float) -> bool:
        self._update_average()
        if len(self._queue) >= self.limit_packets:
            self._count_since_mark = -1
            self._record_drop(packet, now)
            return False

        prob = self._drop_probability()
        should_act = False
        if prob >= 1.0:
            should_act = True
        elif prob > 0.0:
            # Uniformize inter-mark gaps as in the RED paper.
            self._count_since_mark += 1
            denom = 1.0 - self._count_since_mark * prob
            effective = prob / denom if denom > 0 else 1.0
            if self._rng.random() < effective:
                should_act = True
        else:
            self._count_since_mark = -1

        if should_act:
            self._count_since_mark = -1
            self._record_drop(packet, now)
            return False

        packet.enqueue_time = now
        self._queue.append(packet)
        self._bytes += packet.size
        self._record_enqueue(packet, now)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        self._record_dequeue(packet, now)
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_length(self) -> int:
        return self._bytes

"""Hierarchical token bucket (HTB)-style per-user isolation.

Models the per-subscriber bandwidth plans of §2.1: each user class has
an assured rate and a ceiling; classes at their assured rate may borrow
unused capacity up to the ceiling.  This is a simplified two-level HTB
(root + leaf classes) sufficient to express "every user gets the rate
they paid for, plus a share of any slack".

Scheduling: leaves below their assured rate are served first
(round-robin); if none, leaves below their ceiling borrow (round-robin
too).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..errors import ConfigError
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..sim.packet import Packet
from .base import Qdisc


#: Depth (bytes) of every class's buckets: ten MTUs.
BURST = 15140


class HtbClass:
    """One leaf class: a token bucket pair (assured rate and ceiling),
    each :data:`BURST` bytes deep."""

    __slots__ = ("name", "rate", "ceil", "tokens", "ctokens",
                 "last_update", "packets", "bytes")

    def __init__(self, name: str, rate: float, ceil: float):
        if rate <= 0 or ceil < rate:
            raise ConfigError(
                f"class {name!r}: need 0 < rate <= ceil, got {rate}, {ceil}")
        self.name = name
        self.rate = rate
        self.ceil = ceil
        self.tokens = float(BURST)
        self.ctokens = float(BURST)
        self.last_update = 0.0
        self.packets: deque[Packet] = deque()
        self.bytes = 0

    def refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.last_update)
        self.last_update = now
        self.tokens = min(float(BURST), self.tokens + elapsed * self.rate)
        self.ctokens = min(float(BURST), self.ctokens + elapsed * self.ceil)


class HtbQueue(Qdisc):
    """Two-level HTB with per-class FIFO leaves.

    Args:
        classes: leaf classes keyed by name; a packet's class is the one
            named by its user id.
        default_class: class for unmatched packets; must exist.
        limit_packets: per-class packet limit.
    """

    def __init__(self, classes: list[HtbClass],
                 default_class: str | None = None,
                 limit_packets: int = 1000):
        super().__init__()
        if not classes:
            raise ConfigError("HtbQueue needs at least one class")
        self.classes = {c.name: c for c in classes}
        if len(self.classes) != len(classes):
            raise ConfigError("duplicate class names")
        self.default_class = default_class if default_class is not None \
            else classes[0].name
        if self.default_class not in self.classes:
            raise ConfigError(f"unknown default class {self.default_class!r}")
        self.limit_packets = limit_packets
        self._order = [c.name for c in classes]
        self._rr_assured = 0
        self._rr_borrow = 0
        self._total_packets = 0
        self._total_bytes = 0

    def _class_of(self, packet: Packet) -> HtbClass:
        return self.classes.get(packet.user_id,
                                self.classes[self.default_class])

    def enqueue(self, packet: Packet, now: float) -> bool:
        cls = self._class_of(packet)
        if len(cls.packets) >= self.limit_packets:
            self._record_drop(packet, now)
            return False
        packet.enqueue_time = now
        cls.packets.append(packet)
        cls.bytes += packet.size
        self._total_packets += 1
        self._total_bytes += packet.size
        self._record_enqueue(packet, now)
        return True

    def _try_serve(self, cls: HtbClass, borrow: bool) -> Optional[Packet]:
        if not cls.packets:
            return None
        head = cls.packets[0]
        if borrow:
            if cls.ctokens < head.size:
                return None
        else:
            if cls.tokens < head.size:
                return None
        cls.packets.popleft()
        cls.bytes -= head.size
        cls.tokens = max(cls.tokens - head.size, -float(BURST))
        cls.ctokens -= head.size
        self._total_packets -= 1
        self._total_bytes -= head.size
        return head

    def dequeue(self, now: float) -> Optional[Packet]:
        names = self._order
        n = len(names)
        for cls in self.classes.values():
            cls.refill(now)
        # Pass 1: classes within their assured rate.
        for i in range(n):
            idx = (self._rr_assured + i) % n
            packet = self._try_serve(self.classes[names[idx]], borrow=False)
            if packet is not None:
                self._rr_assured = (idx + 1) % n
                self._record_dequeue(packet, now)
                return packet
        # Pass 2: classes borrowing up to their ceiling.
        for i in range(n):
            idx = (self._rr_borrow + i) % n
            packet = self._try_serve(self.classes[names[idx]], borrow=True)
            if packet is not None:
                self._rr_borrow = (idx + 1) % n
                self._record_dequeue(packet, now)
                return packet
        return None

    def next_ready_time(self, now: float) -> Optional[float]:
        if self._total_packets == 0:
            return None
        best: Optional[float] = None
        for cls in self.classes.values():
            if not cls.packets:
                continue
            need = cls.packets[0].size
            cls.refill(now)
            wait_c = max(0.0, need - cls.ctokens) / cls.ceil
            # Epsilon floor: see TokenBucketFilter.next_ready_time.
            candidate = now + max(wait_c, 1e-6)
            if best is None or candidate < best:
                best = candidate
        return best

    def __len__(self) -> int:
        return self._total_packets

    @property
    def byte_length(self) -> int:
        return self._total_bytes

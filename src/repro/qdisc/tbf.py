"""Token-bucket filter (TBF) shaper.

The shaping mechanism the paper's §5.2 singles out: a flow accrues
tokens at a fixed ``rate`` up to a ``burst`` ceiling and may spend them
arbitrarily fast, so a shaped flow's transmission is bursty -- the
source of the jitter contention the paper predicts will matter next.

The TBF wraps a child qdisc (DropTail by default): arrivals go through
the child's admission logic; departures are gated on token
availability.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigError
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..sim.packet import Packet
from .base import Qdisc
from .fifo import DropTailQueue


class TokenBucketFilter(Qdisc):
    """Shape departures to ``rate`` bytes/s with ``burst`` bytes of slack.

    Args:
        rate: long-term token fill rate (bytes/second).
        burst: bucket depth (bytes); must hold at least one MTU or the
            largest packet would starve forever.
        child: inner queue holding packets awaiting tokens.

    A burst drains at line rate: there is no peak-rate bucket.
    """

    MTU = 1514

    def __init__(self, rate: float, burst: int,
                 child: Qdisc | None = None):
        super().__init__()
        if rate <= 0:
            raise ConfigError(f"rate must be positive: {rate}")
        if burst < self.MTU:
            raise ConfigError(f"burst must hold at least one MTU: {burst}")
        self.rate = rate
        self.burst = burst
        self.child = child if child is not None else DropTailQueue(
            limit_packets=1000)
        self._tokens = float(burst)
        self._last_update = 0.0
        #: head-of-line packet pulled from the child but awaiting tokens
        self._stash: Optional[Packet] = None

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last_update)
        self._last_update = now
        self._tokens = min(float(self.burst),
                           self._tokens + elapsed * self.rate)

    def enqueue(self, packet: Packet, now: float) -> bool:
        accepted = self.child.enqueue(packet, now)
        if accepted:
            self._record_enqueue(packet, now)
        else:
            # The child recorded its own drop; mirror the count here so
            # callers reading this qdisc's stats see the loss.
            self._record_drop(packet, now)
        return accepted

    def dequeue(self, now: float) -> Optional[Packet]:
        self._refill(now)
        head = self._stash
        if head is None:
            head = self.child.dequeue(now)
        else:
            self._stash = None
        if head is None:
            return None
        if self._tokens < head.size:
            self._stash = head
            return None
        self._tokens -= head.size
        self._record_dequeue(head, now)
        return head

    def __len__(self) -> int:
        return len(self.child) + (1 if self._stash is not None else 0)

    @property
    def byte_length(self) -> int:
        extra = self._stash.size if self._stash is not None else 0
        return self.child.byte_length + extra

    def next_ready_time(self, now: float) -> Optional[float]:
        if self._stash is None and not len(self.child):
            return None
        need = self._stash.size if self._stash is not None else self.MTU
        self._refill(now)
        deficit = max(0.0, need - self._tokens)
        wait = deficit / self.rate
        # Floor the wait: float rounding can leave the bucket a hair
        # short of affordable, and a zero-delay retry would spin the
        # link's poll loop at sub-nanosecond timestamps forever.
        return now + max(wait, 1e-6)

    @property
    def tokens(self) -> float:
        """Current token level (bytes); for tests and introspection."""
        return self._tokens

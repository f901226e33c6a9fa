"""Stochastic fair queueing: DRR over a fixed number of hash buckets.

Unlike :class:`~repro.qdisc.fq.DrrFairQueue`, flows are hashed into a
bounded set of buckets, so distinct flows can collide and share a
bucket.  This is the cheap approximation deployed in practice (Linux
``sfq``); we model it to study how isolation degrades under collisions.
"""

from __future__ import annotations

import hashlib

from ..errors import ConfigError
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..sim.packet import Packet
from .fq import DrrFairQueue


def _bucket_of(flow_id: str, buckets: int, salt: int) -> str:
    digest = hashlib.blake2s(f"{salt}:{flow_id}".encode(),
                             digest_size=4).digest()
    return str(int.from_bytes(digest, "little") % buckets)


class StochasticFairQueue(DrrFairQueue):
    """SFQ: hash flows into ``buckets`` DRR sub-queues.

    Args:
        buckets: number of hash buckets (Linux default is 128).
        salt: hash perturbation (Linux re-salts periodically; we keep it
            fixed per instance for reproducibility).
    """

    def __init__(self, limit_packets: int = 1000, buckets: int = 128,
                 salt: int = 0):
        if buckets <= 0:
            raise ConfigError(f"buckets must be positive: {buckets}")
        self.buckets = buckets
        self.salt = salt
        super().__init__(limit_packets=limit_packets,
                         classify=self._classify)

    def _classify(self, packet: Packet) -> str:
        return _bucket_of(packet.flow_id, self.buckets, self.salt)

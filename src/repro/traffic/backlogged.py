"""Persistently backlogged flows -- the classic contending workload.

The paper's §2.3 names these ("software updates, etc") as the main
remaining source of genuine access-link contention; Figure 3 uses
backlogged Reno and BBR flows as its two elastic cross-traffic phases.
"""

from __future__ import annotations

from ..cca.base import CongestionControl
from ..sim.engine import Simulator
from ..sim.network import PathHandles
from ..tcp.endpoint import Connection
from .base import TrafficSource


class BackloggedFlow(TrafficSource):
    """One long-running flow that always has data to send.

    Args:
        sim: the simulator.
        path: where the flow lives.
        flow_id: flow identifier.
        cca: congestion control instance (owned by this flow).
        user_id: subscriber identifier for per-user queueing.
        ecn: negotiate ECN on the connection (DCTCP needs this to see
            congestion marks instead of losses).
        jitter: optional :class:`~repro.sim.jitter.TimingJitter` for
            the endpoint clocks (CPU-contention axis).
    """

    def __init__(self, sim: Simulator, path: PathHandles, flow_id: str,
                 cca: CongestionControl, user_id: str = "",
                 ecn: bool = False, jitter=None):
        self.sim = sim
        self.path = path
        self.flow_id = flow_id
        self.connection = Connection(sim, path, flow_id, cca,
                                     user_id=user_id, ecn=ecn, jitter=jitter)
        self._stopped = False

    def start(self) -> None:
        self.connection.sender.set_infinite_backlog()

    def stop(self) -> None:
        """Detach the flow from the path (in-flight packets die)."""
        self._stopped = True
        self.path.dst_host.detach(self.flow_id)
        self.path.src_host.detach(self.flow_id)
        # Stop the retransmission timer so the dead flow doesn't spin.
        self.connection.sender._disarm_rto()
        self.connection.sender._infinite_backlog = False
        self.connection.sender._total_written = \
            self.connection.sender.snd_nxt

    @property
    def delivered_bytes(self) -> int:
        return self.connection.receiver.received_bytes

    def throughput(self, duration: float) -> float:
        """Mean goodput (bytes/second) over ``duration``."""
        return self.delivered_bytes / duration

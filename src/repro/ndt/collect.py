"""Collect NDT-style records from the packet-level simulator.

An :class:`NdtCollector` runs a speedtest-shaped bulk transfer on a
simulated path and snapshots the sender's ``TCPInfo`` on the NDT
cadence.  Records produced here flow through the same
:mod:`repro.ndt.pipeline` as synthetic ones -- closing the loop between
the simulator substrate and the passive analysis.
"""

from __future__ import annotations

from ..cca.cubic import CubicCca
from ..sim.engine import Simulator
from ..sim.network import PathHandles
from ..tcp.endpoint import Connection
from ..tcp.tcp_info import TcpInfoSnapshot
from .schema import NdtRecord


class NdtCollector:
    """A simulated NDT measurement flow: a 10 s Cubic bulk test over a
    cable access link (NDT servers run Cubic or BBR).

    Args:
        sim: the simulator.
        path: path under test.
        flow_id: flow identifier.
    """

    #: TCPInfo snapshot cadence (seconds), NDT's
    snapshot_interval = 0.25
    #: Test length (seconds), NDT's
    duration = 10.0
    #: Metadata tag carried into the record
    access_type = "cable"

    def __init__(self, sim: Simulator, path: PathHandles, flow_id: str):
        self.sim = sim
        self.flow_id = flow_id
        self.connection = Connection(sim, path, flow_id, CubicCca())
        self._snapshots: list[TcpInfoSnapshot] = []
        self._path = path

    def start(self) -> None:
        """Begin the test; snapshots collect until ``duration``."""
        self.connection.sender.set_infinite_backlog()
        self._start_time = self.sim.now
        self.sim.schedule(self.snapshot_interval, self._snap)

    def _snap(self) -> None:
        self._snapshots.append(self.connection.sender.snapshot())
        if self.sim.now - self._start_time < self.duration - 1e-9:
            self.sim.schedule(self.snapshot_interval, self._snap)
        else:
            # Test over: stop offering load.
            sender = self.connection.sender
            sender._infinite_backlog = False
            sender._total_written = sender.snd_nxt
            sender._closed = True

    def record(self, access_rate_bps: float = 0.0) -> NdtRecord:
        """Build the NDT record (call after the simulation has run)."""
        return NdtRecord.from_snapshots(
            self._snapshots,
            uuid=f"collected-{self.flow_id}",
            duration_s=self.duration,
            access_type=self.access_type,
            access_rate_bps=access_rate_bps,
        )

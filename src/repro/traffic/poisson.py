"""Short flows with Poisson arrivals.

The paper's §2.2: "most application flows are short" -- they fit in the
initial window and are gone before CCA dynamics matter.  This generator
creates a new transport connection per flow, with exponential
inter-arrival times and sizes drawn from a heavy-tailed (log-normal or
Pareto-like) distribution, the shape measurement studies consistently
report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cca.cubic import CubicCca
from ..errors import ConfigError
from ..sim.engine import Simulator
from ..sim.network import PathHandles
from ..tcp.endpoint import Connection
from .base import TrafficSource


#: log-normal shape parameter of the flow sizes (tail heaviness)
SIZE_SIGMA = 1.5


def lognormal_sizes(rng: np.random.Generator, mean_bytes: float):
    """Heavy-tailed flow sizes with the requested mean."""
    mu = np.log(mean_bytes) - SIZE_SIGMA * SIZE_SIGMA / 2.0
    while True:
        yield max(200, int(rng.lognormal(mu, SIZE_SIGMA)))


@dataclass
class FlowRecord:
    """Lifecycle record of one short flow."""

    flow_id: str
    size: int
    start_time: float
    completion_time: float | None = None


class PoissonShortFlows(TrafficSource):
    """Open-loop short-flow workload.

    Args:
        sim: the simulator.
        path: topology the flows run over.
        arrival_rate: flows per second (Poisson).
        mean_size: mean flow size in bytes (:func:`lognormal_sizes`).
        seed: RNG seed.
        prefix: flow-id prefix.

    Each flow is its own Cubic connection (a fresh slow start each
    time) and its own user.
    """

    def __init__(self, sim: Simulator, path: PathHandles,
                 arrival_rate: float, mean_size: float = 50_000,
                 seed: int = 0, prefix: str = "short"):
        if arrival_rate <= 0:
            raise ConfigError(f"arrival_rate must be positive: {arrival_rate}")
        if mean_size <= 0:
            raise ConfigError(f"mean_size must be positive: {mean_size}")
        self.sim = sim
        self.path = path
        self.arrival_rate = arrival_rate
        self.prefix = prefix
        self._rng = np.random.default_rng(seed)
        self._sizes = lognormal_sizes(self._rng, mean_size)
        self._running = False
        self._counter = 0
        self.records: list[FlowRecord] = []
        self._delivered = 0

    def start(self) -> None:
        self._running = True
        self._schedule_next_arrival()

    def stop(self) -> None:
        """Stop new arrivals; in-flight flows finish naturally."""
        self._running = False

    def _schedule_next_arrival(self) -> None:
        if not self._running:
            return
        gap = self._rng.exponential(1.0 / self.arrival_rate)
        self.sim.schedule(gap, self._arrive)

    def _arrive(self) -> None:
        if not self._running:
            return
        self._counter += 1
        flow_id = f"{self.prefix}-{self._counter}"
        size = next(self._sizes)
        record = FlowRecord(flow_id=flow_id, size=size,
                            start_time=self.sim.now)
        self.records.append(record)

        conn = Connection(self.sim, self.path, flow_id, CubicCca(),
                          user_id=flow_id, on_data=self._count_bytes)
        path = self.path

        def finished(now: float):
            record.completion_time = now
            path.dst_host.detach(flow_id)
            path.src_host.detach(flow_id)

        conn.sender.on_complete = finished
        conn.sender.write(size)
        conn.sender.close()
        self._schedule_next_arrival()

    def _count_bytes(self, nbytes: int, now: float) -> None:
        self._delivered += nbytes

    @property
    def delivered_bytes(self) -> int:
        return self._delivered

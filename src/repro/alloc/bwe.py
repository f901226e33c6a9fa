"""BwE-style hierarchical bandwidth allocation (Kumar et al., SIGCOMM '15).

§2.1: "Google uses BwE to allocate bandwidth in its private WAN.  BwE
integrates with applications that report their bandwidth demand to
centrally determine bandwidth allocations across the entire network.
This isolates applications from each other and eliminates inter-flow
contention across applications."

We model the essential mechanism: applications report demands into a
hierarchy (org -> job -> flow) with weights; a central allocator runs
weighted max-min fairness (water-filling) at every level; hosts enforce
the resulting rates by pacing (here: a CBR-style rate applied to each
flow's sender).  No flow ever experiences another flow's CCA dynamics
-- the allocation is decided entirely off-path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..units import ordered_sum


@dataclass
class DemandNode:
    """One node of the demand hierarchy.

    Leaves carry demands (bytes/second); interior nodes aggregate
    children.  ``weight`` scales the node's share relative to its
    siblings.
    """

    name: str
    weight: float = 1.0
    demand: float | None = None          # leaves only
    children: list["DemandNode"] = field(default_factory=list)

    def __post_init__(self):
        if self.weight <= 0:
            raise ConfigError(f"weight must be positive: {self.name}")
        if self.demand is not None and self.demand < 0:
            raise ConfigError(f"demand must be non-negative: {self.name}")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def total_demand(self) -> float:
        if self.is_leaf:
            return self.demand if self.demand is not None else 0.0
        return ordered_sum(child.total_demand() for child in self.children)


def weighted_water_fill(demands: list[float], weights: list[float],
                        capacity: float) -> list[float]:
    """Weighted max-min fair allocation of ``capacity``.

    Flows demanding less than their weighted share keep their demand;
    the residue is re-split among the rest by weight.
    """
    if len(demands) != len(weights):
        raise ConfigError("demands and weights must align")
    if capacity < 0:
        raise ConfigError("capacity must be non-negative")
    alloc = [0.0] * len(demands)
    active = [i for i in range(len(demands)) if demands[i] > 0]
    remaining = capacity
    while active and remaining > 1e-9:
        total_weight = ordered_sum(weights[i] for i in active)
        satisfied = [i for i in active
                     if demands[i] <= remaining * weights[i] / total_weight
                     + 1e-12]
        if not satisfied:
            for i in active:
                alloc[i] = remaining * weights[i] / total_weight
            remaining = 0.0
            break
        for i in satisfied:
            alloc[i] = demands[i]
            remaining -= demands[i]
            active.remove(i)
    return alloc


def allocate(root: DemandNode, capacity: float) -> dict[str, float]:
    """Run hierarchical weighted max-min allocation.

    Returns:
        allocation (bytes/second) per node name, leaves and interior.
    """
    out: dict[str, float] = {}

    def recurse(node: DemandNode, share: float) -> None:
        granted = min(share, node.total_demand())
        out[node.name] = granted
        if node.is_leaf:
            return
        demands = [child.total_demand() for child in node.children]
        weights = [child.weight for child in node.children]
        child_alloc = weighted_water_fill(demands, weights, granted)
        for child, amount in zip(node.children, child_alloc):
            recurse(child, amount)

    recurse(root, capacity)
    return out


class BweController:
    """A periodic central allocator driving host pacers.

    Hosts register flows with a demand callback and an enforcement
    callback; every ``period`` the controller collects demands, runs
    the hierarchy, and pushes rates.  The controller is deliberately
    out-of-band: it never touches packets.

    Args:
        sim: the simulator.
        capacity: the managed link/WAN capacity (bytes/second).
        period: reallocation interval (BwE operates on seconds).
    """

    def __init__(self, sim, capacity: float, period: float = 1.0):
        if capacity <= 0 or period <= 0:
            raise ConfigError("capacity and period must be positive")
        self.sim = sim
        self.capacity = capacity
        self.period = period
        self._flows: dict[str, dict] = {}
        self._group_weights: dict[str, float] = {}
        self.allocations: dict[str, float] = {}
        self._running = False

    def register(self, name: str, demand_fn, enforce_fn,
                 group: str = "default",
                 group_weight: float | None = None) -> None:
        """Register a flow: ``demand_fn() -> bytes/s``,
        ``enforce_fn(rate_bytes_per_s)``.

        Flows share their group equally; ``group_weight`` (if given)
        sets the group's weight among groups.
        """
        self._flows[name] = {"demand": demand_fn, "enforce": enforce_fn,
                             "group": group}
        if group_weight is not None:
            self._group_weights[group] = group_weight

    def start(self) -> None:
        self._running = True
        self._tick()

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.reallocate()
        self.sim.schedule(self.period, self._tick)

    def reallocate(self) -> dict[str, float]:
        """Collect demands, run the hierarchy, push rates."""
        groups: dict[str, list[str]] = {}
        for name, flow in self._flows.items():
            groups.setdefault(flow["group"], []).append(name)
        root = DemandNode("root", children=[
            DemandNode(group, weight=self._group_weights.get(group, 1.0),
                       children=[
                DemandNode(name,
                           demand=float(self._flows[name]["demand"]()))
                for name in names
            ])
            for group, names in sorted(groups.items())
        ])
        self.allocations = allocate(root, self.capacity)
        for name, flow in self._flows.items():
            flow["enforce"](self.allocations.get(name, 0.0))
        return self.allocations

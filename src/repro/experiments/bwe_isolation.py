"""Experiment E10: centralized allocation eliminates contention (§2.1).

"hyperscalers deploy private WANs [...] BwE integrates with
applications that report their bandwidth demand to centrally determine
bandwidth allocations across the entire network.  This isolates
applications from each other and eliminates inter-flow contention."

Setup: two application groups (a weight-2 "serving" group of two flows
and a weight-1 "batch" group of two flows) share a private-WAN link.
Run A lets their CCAs contend on a FIFO; run B adds a BwE controller
that paces every flow to its hierarchical weighted max-min share.

Expected shape: under BwE, measured throughputs match the computed
allocations almost exactly (allocation error ~ 0) and the weighted
group split is enforced; under pure CCA contention, the split is
whatever the CCA dynamics happen to produce.
"""

from __future__ import annotations

from .. import viz
from ..alloc.bwe import BweController
from ..cca.cbr import CbrCca
from ..qa.scenario import FlowSpec, Scenario, run_scenario
from ..sim.engine import Simulator
from ..sim.network import dumbbell
from ..tcp.endpoint import Connection
from ..units import mbps, ms, ordered_sum, to_mbps
from .runner import ExperimentResult, Stopwatch, records_params

#: (flow name, group, weight, CCA when contending)
FLOWS = (
    ("serving-a", "serving", 2.0, "cubic"),
    ("serving-b", "serving", 2.0, "bbr"),
    ("batch-a", "batch", 1.0, "cubic"),
    ("batch-b", "batch", 1.0, "reno"),
)


def _run_contention(rate_mbps: float, duration: float) -> dict[str, float]:
    delivered = run_scenario(Scenario(
        family="flows", rate_mbps=rate_mbps, rtt_ms=30.0, qdisc="droptail",
        duration=duration, seed=0, buffer_multiplier=2.0,
        flows=tuple(FlowSpec(cca=cca) for *_, cca in FLOWS)),
        check_invariants=False).delivered
    return {name: delivered[f"flow-{i}"] / duration
            for i, (name, *_) in enumerate(FLOWS)}


def _run_bwe(rate_mbps: float, duration: float
             ) -> tuple[dict[str, float], dict[str, float]]:
    sim = Simulator()
    path = dumbbell(sim, mbps(rate_mbps), ms(30), buffer_multiplier=2.0)
    controller = BweController(sim, capacity=mbps(rate_mbps) * 0.98,
                               period=0.5)
    conns = {}
    for name, group, weight, _cca in FLOWS:
        cca = CbrCca(rate=mbps(1.0))  # paced by the controller
        conn = Connection(sim, path, name, cca)
        conn.sender.set_infinite_backlog()
        conns[name] = conn
        controller.register(
            name,
            demand_fn=lambda: mbps(rate_mbps),  # all backlogged
            enforce_fn=lambda rate, c=cca: setattr(c, "rate",
                                                   max(rate, 1000.0)),
            group=group, group_weight=weight)
    controller.start()
    sim.run(until=duration)
    achieved = {name: conn.receiver.received_bytes / duration
                for name, conn in conns.items()}
    return achieved, dict(controller.allocations)


@records_params
def run(rate_mbps: float = 100.0, duration: float = 20.0
        ) -> ExperimentResult:
    """Compare CCA contention against BwE-managed allocation."""
    with Stopwatch() as watch:
        contended = _run_contention(rate_mbps, duration)
        managed, allocations = _run_bwe(rate_mbps, duration)

    serving_share_contended = (
        ordered_sum(v for k, v in contended.items()
                    if k.startswith("serving"))
        / ordered_sum(contended.values()))
    serving_share_managed = (
        ordered_sum(v for k, v in managed.items() if k.startswith("serving"))
        / ordered_sum(managed.values()))
    errors = [abs(managed[name] - allocations[name])
              / max(allocations[name], 1.0)
              for name, *_ in FLOWS]

    rows = [{
        "flow": name,
        "contended_mbps": round(to_mbps(contended[name]), 2),
        "bwe_mbps": round(to_mbps(managed[name]), 2),
        "bwe_allocated_mbps": round(to_mbps(allocations[name]), 2),
    } for name, *_ in FLOWS]

    parts = [
        f"E10: four backlogged flows on a {rate_mbps:.0f} Mbit/s "
        f"private-WAN link: CCA contention vs BwE allocation "
        f"(serving group weight 2, batch weight 1)",
        "",
        viz.table(
            [(r["flow"], r["contended_mbps"], r["bwe_mbps"],
              r["bwe_allocated_mbps"]) for r in rows],
            header=("flow", "contended Mbit/s", "BwE Mbit/s",
                    "BwE allocation")),
        "",
        f"serving-group share: contended {serving_share_contended:.1%} "
        f"(CCA-determined), BwE {serving_share_managed:.1%} "
        f"(policy says 66.7%)",
        f"max BwE enforcement error: {max(errors):.2%}",
    ]
    metrics = {
        "serving_share_contended": serving_share_contended,
        "serving_share_managed": serving_share_managed,
        "max_enforcement_error": max(errors),
    }
    return ExperimentResult(
        experiment="bwe_isolation",
        text="\n".join(parts),
        metrics=metrics,
        tables={"flows": rows},
        elapsed_s=watch.elapsed,
    )

"""Experiment E9: TSLP detects congestion; elasticity detects contention.

§4: time-series latency probes (Dhamdhere et al.) identify inflated
queueing delay but "cannot discriminate between cases where individual
flows contend for bandwidth and cases where aggregates consisting of
shorter and application-limited flows overwhelm a given link."

We run both instruments side by side on three paths:

* ``contention``  -- a backlogged Reno flow shares the link.
* ``aggregate``   -- a heavy Poisson short-flow aggregate loads the
  link (congestion without long-flow contention).
* ``idle``        -- nothing else.

Expected shape: TSLP flags *both* loaded paths as congested; the
elasticity probe confidently reports contention only on the true
contention path (the heavy aggregate -- transiently elastic TCP slow
starts -- lands at most in the inconclusive band).
"""

from __future__ import annotations

from .. import viz
from ..cca.reno import RenoCca
from ..core.detector import ContentionDetector
from ..core.probe import ElasticityProbe
from ..core.tslp import TslpProber, detect_congestion_episodes
from ..sim.engine import Simulator
from ..sim.network import dumbbell
from ..tcp.endpoint import Connection
from ..traffic.poisson import PoissonShortFlows
from ..units import mbps, ms, to_mbps, to_ms
from .runner import ExperimentResult, Stopwatch, records_params


def _add_scenario_traffic(scenario: str, sim, path, rate_mbps: float,
                          seed: int) -> None:
    if scenario == "contention":
        rival = Connection(sim, path, "rival", RenoCca())
        rival.sender.set_infinite_backlog()
    elif scenario == "aggregate":
        # >80% offered load of application-limited short flows: the
        # Dhamdhere-style overwhelmed-by-aggregates link (no long
        # flow ever leaves slow start).
        flows = PoissonShortFlows(sim, path, arrival_rate=100.0,
                                  mean_size=rate_mbps * 1250 / 2.0,
                                  seed=seed, prefix="agg")
        flows.start()
    elif scenario != "idle":
        raise ValueError(f"unknown scenario {scenario!r}")


def _run_scenario(scenario: str, rate_mbps: float, rtt_ms_val: float,
                  duration: float, seed: int) -> dict:
    # Each instrument measures the scenario in its own simulation: the
    # elasticity probe is load-bearing by design, and letting TSLP
    # watch the probe's standing queue would measure the instrument,
    # not the path.
    sim1 = Simulator()
    path1 = dumbbell(sim1, mbps(rate_mbps), ms(rtt_ms_val),
                     buffer_multiplier=1.0)
    tslp = TslpProber(sim1, path1, interval=0.05)
    tslp.start()
    _add_scenario_traffic(scenario, sim1, path1, rate_mbps, seed)
    sim1.run(until=duration)
    times, rtts = tslp.series()
    # Skip the ramp-up third: TSLP longitudinal studies judge steady
    # state, and TCP takes several seconds to fill a high-BDP pipe.
    warm = times >= duration / 3.0
    episodes = detect_congestion_episodes(times[warm], rtts[warm])

    sim2 = Simulator()
    path2 = dumbbell(sim2, mbps(rate_mbps), ms(rtt_ms_val),
                     buffer_multiplier=1.0)
    probe = ElasticityProbe(sim2, path2, capacity_hint=mbps(rate_mbps))
    probe.start()
    _add_scenario_traffic(scenario, sim2, path2, rate_mbps, seed)
    sim2.run(until=duration)
    verdict = ContentionDetector().verdict(list(probe.report().readings))

    return {
        "scenario": scenario,
        "tslp_congested": episodes.congested,
        "tslp_congested_fraction": round(episodes.congested_fraction, 3),
        "tslp_baseline_rtt_ms": round(to_ms(episodes.baseline_rtt), 2),
        "tslp_episodes": len(episodes.episodes),
        "elasticity": round(verdict.mean_elasticity, 3),
        "contention_verdict": verdict.contending,
        "category": verdict.category,
        "probe_mbps": round(to_mbps(
            probe.connection.receiver.received_bytes / duration), 2),
    }


@records_params
def run(rate_mbps: float = 48.0, rtt_ms: float = 50.0,
        duration: float = 30.0, seed: int = 0) -> ExperimentResult:
    """Run the three scenarios and compare the instruments."""
    with Stopwatch() as watch:
        rows = [_run_scenario(s, rate_mbps, rtt_ms, duration, seed)
                for s in ("idle", "aggregate", "contention")]

    by_name = {r["scenario"]: r for r in rows}
    parts = [
        f"E9: TSLP vs elasticity probing on a {rate_mbps:.0f} Mbit/s, "
        f"{rtt_ms:.0f} ms link",
        "",
        viz.table(
            [(r["scenario"],
              "yes" if r["tslp_congested"] else "no",
              f"{r['tslp_congested_fraction']:.1%}",
              f"{r['elasticity']:.2f}", r["category"])
             for r in rows],
            header=("scenario", "TSLP: congested?", "inflated frac",
                    "elasticity", "probe verdict")),
        "",
        "Shape check: TSLP flags both loaded paths (it measures "
        "queueing); only the elasticity probe confidently separates "
        "the contending path from the overwhelmed-by-aggregates path "
        "(§4).",
    ]
    metrics = {
        "tslp_flags_aggregate": 1.0 if by_name["aggregate"][
            "tslp_congested"] else 0.0,
        "tslp_flags_contention": 1.0 if by_name["contention"][
            "tslp_congested"] else 0.0,
        "elasticity_aggregate": by_name["aggregate"]["elasticity"],
        "elasticity_contention": by_name["contention"]["elasticity"],
        "probe_flags_aggregate": 1.0 if by_name["aggregate"][
            "category"] == "contending" else 0.0,
        "probe_flags_contention": 1.0 if by_name["contention"][
            "category"] == "contending" else 0.0,
    }
    return ExperimentResult(
        experiment="tslp_vs_elasticity",
        text="\n".join(parts),
        metrics=metrics,
        tables={"scenarios": rows},
        elapsed_s=watch.elapsed,
    )

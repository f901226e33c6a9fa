"""Experiment E8: offered load vs allocation on access links (§2.2).

"inter-flow contention can affect bandwidth allocation only if a
user's applications simultaneously offer enough load to exceed the
access link's capacity.  Otherwise, each application would simply
receive a bandwidth allocation corresponding to its offered load."

Setup: a home access link carrying a rate-limited application mix
(video + gaming-style CBR + short flows) whose combined offered load
sweeps from well under to over the link capacity.  We measure each
application's allocation error vs its offered load.  Expected shape:
below saturation the allocation equals offered load (error ~ 0, CCA
irrelevant); only past saturation do allocations diverge.
"""

from __future__ import annotations

import numpy as np

from .. import viz
from ..sim.engine import Simulator
from ..sim.network import dumbbell
from ..traffic.cbr import CbrSource
from ..units import mbps, ms, to_mbps
from .runner import ExperimentResult, Stopwatch, records_params


def _measure(load_fraction: float, rate_mbps: float, rtt_ms_val: float,
             duration: float, n_apps: int) -> dict:
    sim = Simulator()
    path = dumbbell(sim, mbps(rate_mbps), ms(rtt_ms_val))
    # Application demands: a skewed mix summing to load_fraction of
    # capacity (weights ~ a video stream, a call, background sync...).
    weights = np.array([0.45, 0.25, 0.15, 0.10, 0.05][:n_apps])
    weights = weights / weights.sum()
    total_demand = mbps(rate_mbps) * load_fraction
    demands = weights * total_demand
    apps = [CbrSource(sim, path, f"app{i}", rate=demand)
            for i, demand in enumerate(demands)]
    for app in apps:
        app.start()
    sim.run(until=duration)

    errors = []
    for app, demand in zip(apps, demands):
        achieved = app.delivered_bytes / duration
        errors.append(abs(achieved - demand) / demand)
    return {
        "offered_load_fraction": load_fraction,
        "mean_allocation_error": round(float(np.mean(errors)), 4),
        "max_allocation_error": round(float(np.max(errors)), 4),
        "total_offered_mbps": round(to_mbps(total_demand), 2),
    }


@records_params
def run(load_fractions: tuple = (0.2, 0.4, 0.6, 0.8, 0.95, 1.1, 1.4),
        rate_mbps: float = 100.0, rtt_ms_val: float = 20.0,
        duration: float = 10.0, n_apps: int = 5) -> ExperimentResult:
    """Sweep aggregate offered load across the saturation point."""
    with Stopwatch() as watch:
        rows = [_measure(frac, rate_mbps, rtt_ms_val, duration, n_apps)
                for frac in load_fractions]

    below = [r for r in rows if r["offered_load_fraction"] <= 0.95]
    above = [r for r in rows if r["offered_load_fraction"] > 1.0]
    max_error_below = max(r["max_allocation_error"] for r in below)
    min_error_above = min(r["mean_allocation_error"] for r in above) \
        if above else 0.0

    parts = [
        f"E8: {n_apps} rate-limited apps on a {rate_mbps:.0f} Mbit/s "
        f"access link; allocation error vs offered load",
        "",
        viz.table(
            [(f"{r['offered_load_fraction']:.2f}",
              r["total_offered_mbps"],
              f"{r['mean_allocation_error']:.2%}",
              f"{r['max_allocation_error']:.2%}") for r in rows],
            header=("load/capacity", "offered Mbit/s", "mean error",
                    "max error")),
        "",
        "Shape check: error ~ 0 below saturation (allocation = offered "
        "load, §2.2); errors appear only past capacity.",
    ]
    metrics = {
        "max_error_below_saturation": max_error_below,
        "min_error_above_saturation": min_error_above,
    }
    return ExperimentResult(
        experiment="access_link",
        text="\n".join(parts),
        metrics=metrics,
        tables={"sweep": rows},
        elapsed_s=watch.elapsed,
    )

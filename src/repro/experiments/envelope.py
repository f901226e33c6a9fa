"""Experiment E12: the detector's calibrated envelope, cell by cell.

The QA oracles (``repro.qa.oracles``) judge contention verdicts only
inside a calibrated envelope of (cross traffic, rate, RTT) cells where
the packet backend's verdict is deterministic ground truth.  This
experiment runs exactly those cells -- the five elastic cells, the
three inelastic CBR cells, and an idle-path control -- on either
backend and reports the verdict table plus scenarios/second, making it
both the envelope's regression check and the standard yardstick for
backend speed comparisons (``tests/test_system.py`` times the heaviest
elastic cell on both backends).
"""

from __future__ import annotations

import functools

from .. import viz
from ..qa.oracles import _ELASTIC_ENVELOPE, _INELASTIC_ENVELOPE
from ..qa.scenario import Scenario, run_scenario
from ..runtime import parallel_map
from ..units import ordered_sum
from .runner import ExperimentResult, Stopwatch, records_params

#: The calibrated cells: (cross_traffic, rate_mbps, rtt_ms, expected
#: contending) -- the oracles' envelopes plus an idle control.
ENVELOPE_CELLS: tuple[tuple[str, float, float, bool], ...] = (
    *(cell + (True,) for cell in _ELASTIC_ENVELOPE),
    *(cell + (False,) for cell in _INELASTIC_ENVELOPE),
    ("none", 48.0, 20.0, False),
)


def _run_cell(scenario: Scenario, check_invariants: bool = True):
    return run_scenario(scenario, check_invariants=check_invariants)


@records_params
def run(backend: str = "packet", duration: float = 20.0, seed: int = 1,
        workers: int | None = None) -> ExperimentResult:
    """Run every envelope cell and compare verdicts with ground truth.

    ``backend`` selects "packet" (the event-driven reference) or
    "fluid" (the rate-based fast path).  Cells are independent, so
    ``workers`` parallelizes them with bit-identical results.
    """
    scenarios = [
        Scenario(family="probe", rate_mbps=rate, rtt_ms=rtt,
                 qdisc="droptail", duration=duration, seed=seed,
                 cross_traffic=cross, backend=backend)
        for cross, rate, rtt, _ in ENVELOPE_CELLS]
    with Stopwatch() as watch:
        outcomes = parallel_map(functools.partial(_run_cell),
                                scenarios, workers=workers)

    rows = []
    agreements = 0
    for (cross, rate, rtt, expected), outcome in zip(ENVELOPE_CELLS,
                                                     outcomes):
        probe = outcome.probe or {}
        contending = bool(probe.get("contending"))
        agree = contending == expected
        agreements += agree
        total = ordered_sum(outcome.delivered.values())
        share = (outcome.delivered.get("probe", 0) / total
                 if total else 0.0)
        rows.append({
            "cross_traffic": cross,
            "rate_mbps": rate,
            "rtt_ms": rtt,
            "mean_elasticity": round(probe.get("mean_elasticity", 0.0),
                                     3),
            "category": probe.get("category", "?"),
            "contending": contending,
            "expected": expected,
            "agree": agree,
            "probe_share": round(share, 4),
        })

    n = len(rows)
    scenarios_per_s = n / watch.elapsed if watch.elapsed > 0 else 0.0
    parts = [
        f"E12: calibrated-envelope verdict check, backend={backend} "
        f"({n} cells, duration={duration:g}s, seed={seed})",
        "",
        viz.table(
            [(r["cross_traffic"], f"{r['rate_mbps']:g}",
              f"{r['rtt_ms']:g}", r["mean_elasticity"], r["category"],
              "yes" if r["expected"] else "no",
              "ok" if r["agree"] else "MISMATCH")
             for r in rows],
            header=("cross", "mbps", "rtt ms", "mean elast.",
                    "category", "expect contend", "verdict")),
        "",
        f"{agreements}/{n} cells agree with ground truth; "
        f"{scenarios_per_s:.2f} scenarios/s "
        f"({watch.elapsed:.2f}s wall)",
    ]
    return ExperimentResult(
        experiment="envelope",
        text="\n".join(parts),
        metrics={
            "cells": float(n),
            "agreements": float(agreements),
            "agreement_fraction": agreements / n,
            "scenarios_per_s": scenarios_per_s,
        },
        tables={"cells": rows},
        elapsed_s=watch.elapsed,
    )

"""Experiment E16: the probe question re-asked on a shared medium.

The paper's §3.2 technique assumes the bottleneck is a *queue*: cross
traffic that yields bandwidth when the probe pulses is elastic, and
elastic cross traffic means CCA contention.  On a CSMA/CA shared
medium both halves of that inference bend:

* **MAC overhead reads as elastic cross traffic.**  Backoff,
  collisions, and per-frame overhead burn airtime in proportion to
  offered load, so the probe's ẑ = μ·S/R − S estimate -- calibrated
  against the raw medium rate -- sees its *own* overhead pulse with
  the probe.  An idle WLAN reads as strongly contending.
* **MAC fairness partially isolates.**  DCF gives each backlogged
  station roughly equal transmission opportunities, so a backlogged
  elastic competitor on its own station is airtime-capped much like a
  flow behind per-flow FQ -- the §2.1 isolation argument, emerging
  from contention-window arithmetic instead of a scheduler.

This experiment measures both effects cell by cell: one elasticity
probe plus ``n_stations − 1`` cross-traffic stations, swept over
medium (queue control vs CSMA/CA at several station counts and one
EDCA priority mix), cross-traffic type, and CCA mix, on either
backend.  Each CSMA cell is paired with a queue-control cell at the
same flow population, and the report quantifies where the detector's
confidence (distance of mean elasticity from the verdict threshold)
degrades and where the verdict outright flips.
"""

from __future__ import annotations

import functools

from .. import viz
from ..core.axes import AXES, preload_backend
from ..core.campaign import PathSpec
from ..core.detector import ContentionDetector, ordered_mean
from ..core.path import build_packet_path
from ..medium import parse_medium
from ..runtime import parallel_map
from ..units import ordered_sum
from .runner import ExperimentResult, Stopwatch, records_params

#: The medium sweep: a queue control plus CSMA/CA at 2/4/8 stations
#: and one EDCA priority mix (odd stations get voice-class access).
MEDIUMS: tuple[str, ...] = ("queue", "csma-2", "csma-4", "csma-8",
                            "csma-4-prio")

#: Cross-traffic types: idle control, two elastic CCAs, one inelastic.
CROSS_TYPES: tuple[str, ...] = ("none", "reno", "bbr", "cbr")


def _cells(mediums, cross_types):
    """The (medium, cross, n_cross) grid, queue controls matched to
    every CSMA flow population."""
    csma_counts = sorted({parse_medium(m).n_stations - 1
                          for m in mediums if parse_medium(m)})
    cells = []
    for cross in cross_types:
        if cross == "none":
            for medium in mediums:
                cells.append((medium, cross, 0))
            continue
        if "queue" in mediums:
            for n_cross in csma_counts:
                cells.append(("queue", cross, n_cross))
        for medium in mediums:
            spec = parse_medium(medium)
            if spec is not None:
                cells.append((medium, cross, spec.n_stations - 1))
    return cells


def _run_cell(cell, rate_mbps: float, rtt_ms: float, duration: float,
              seed: int, backend: str) -> dict:
    """Run one (medium, cross, n_cross) cell and summarize the probe."""
    medium, cross, n_cross = cell
    spec = PathSpec(rate_mbps=rate_mbps, rtt_ms=rtt_ms, qdisc="droptail",
                    cross_traffic=cross, seed=seed, medium=medium)
    cross_ids = tuple(f"cross-{i}" for i in range(n_cross))
    if backend == "fluid":
        from ..fluid.runner import build_fluid_path
        model, flows = build_fluid_path(spec, cross_ids=cross_ids)
        model.run(duration)
        readings = list(flows["probe"].report(duration).readings)
        probe_bytes = flows["probe"].delivered_bytes
        total_bytes = ordered_sum(f.delivered_bytes for f in flows.values())
    else:
        handles, sources = build_packet_path(spec, cross_ids=cross_ids)
        handles.sim.run(until=duration)
        readings = list(sources["probe"].report().readings)
        probe_bytes = handles.bottleneck.flow_bytes("probe")
        total_bytes = handles.bottleneck.delivered_bytes

    detector = ContentionDetector()
    verdict = detector.verdict(readings)
    share = probe_bytes / total_bytes if total_bytes else 0.0
    return {
        "medium": medium,
        "cross_traffic": cross,
        "n_cross": n_cross,
        "mean_elasticity": round(verdict.mean_elasticity, 3),
        "category": verdict.category,
        "contending": verdict.contending,
        "confidence": round(abs(verdict.mean_elasticity
                                - detector.threshold), 3),
        "probe_share": round(share, 4),
        "goodput_mbps": round(total_bytes * 8.0 / duration / 1e6, 3),
    }


@records_params
def run(backend: str = "packet", rate_mbps: float = 20.0,
        rtt_ms: float = 20.0, duration: float = 20.0, seed: int = 1,
        workers: int | None = None,
        mediums: tuple[str, ...] = MEDIUMS,
        cross_types: tuple[str, ...] = CROSS_TYPES) -> ExperimentResult:
    """Sweep medium x cross-traffic cells and report detector drift.

    The default link shape (20 Mbit/s, 20 ms) is the queue regime's
    strongest calibrated cell, so any confidence loss in the CSMA
    columns is attributable to the medium, not to an already-marginal
    baseline.  Cells are independent; ``workers`` parallelizes them
    with bit-identical results.
    """
    preload_backend(AXES["backend"].validate(backend))
    cells = _cells(mediums, cross_types)  # parses (validates) each medium
    with Stopwatch() as watch:
        rows = parallel_map(
            functools.partial(_run_cell, rate_mbps=rate_mbps,
                              rtt_ms=rtt_ms, duration=duration,
                              seed=seed, backend=backend),
            cells, workers=workers)

    # Pair every CSMA cell with its queue control at the same flow
    # population and quantify the drift.
    controls = {(r["cross_traffic"], r["n_cross"]): r
                for r in rows if r["medium"] == "queue"}
    flips = 0
    drift_rows = []
    for row in rows:
        if row["medium"] == "queue":
            continue
        control = controls.get((row["cross_traffic"], row["n_cross"]))
        if control is None:
            continue
        flipped = row["contending"] != control["contending"]
        flips += flipped
        drift_rows.append({
            **row,
            "queue_mean": control["mean_elasticity"],
            "queue_contending": control["contending"],
            "confidence_delta": round(row["confidence"]
                                      - control["confidence"], 3),
            "verdict_flip": flipped,
        })

    overhead_rows = [r for r in drift_rows
                     if r["cross_traffic"] == "none" and r["contending"]]
    masked_rows = [r for r in drift_rows
                   if r["cross_traffic"] in ("reno", "bbr")
                   and r["queue_contending"] and not r["contending"]]

    n = len(rows)
    parts = [
        f"E16: probe verdicts on a shared medium, backend={backend} "
        f"({n} cells, {rate_mbps:g}mbps/{rtt_ms:g}ms, "
        f"duration={duration:g}s, seed={seed})",
        "",
        viz.table(
            [(r["medium"], r["cross_traffic"], r["n_cross"],
              r["mean_elasticity"], r["category"],
              "yes" if r["contending"] else "no",
              f"{r['probe_share']:.3f}", f"{r['goodput_mbps']:g}")
             for r in rows],
            header=("medium", "cross", "n", "mean elast.", "category",
                    "contending", "probe share", "goodput mbps")),
        "",
        f"{flips}/{len(drift_rows)} CSMA cells flip the verdict of "
        f"their queue control;",
        f"{len(overhead_rows)}/{len([r for r in drift_rows if r['cross_traffic'] == 'none'])} "
        f"idle-medium cells read contending (MAC overhead reads as "
        f"elastic cross traffic);",
        f"{len(masked_rows)} elastic-cross cells read clean under CSMA "
        f"(MAC airtime fairness isolates like per-flow FQ).",
    ]
    return ExperimentResult(
        experiment="medium_contention",
        text="\n".join(parts),
        metrics={
            "cells": float(n),
            "verdict_flips": float(flips),
            "idle_reads_contending": float(len(overhead_rows)),
            "elastic_reads_clean": float(len(masked_rows)),
            "mean_confidence_delta": (
                ordered_mean([r["confidence_delta"] for r in drift_rows])
                if drift_rows else 0.0),
        },
        tables={"cells": rows, "drift": drift_rows},
        elapsed_s=watch.elapsed,
    )

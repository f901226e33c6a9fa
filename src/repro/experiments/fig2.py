"""Experiment E1 / Figure 2: the §3.1 M-Lab NDT passive analysis.

Generates the synthetic stand-in for the paper's one-month NDT query
(9,984 flows, June 2023), applies the §3.1 filters, runs change-point
detection on the remaining flows' throughput series, and reports the
category breakdown plus -- our addition -- ground-truth validation of
the passive inference.

Paper-shape expectations: a large majority of flows is removed as
application-limited, receiver-limited, or cellular; only a small
residual fraction shows throughput level shifts, and some of those
shifts (policed flows) are not contention at all.

Every size goes through the one sharded pipeline
(:func:`repro.ndt.stream.run_pipeline_streaming`): bounded memory
(``--flows 1000000`` runs on a laptop), store-checkpointed shards
(``--resume`` picks an interrupted run back up), and aggregates
byte-identical for any ``chunk_size``.
"""

from __future__ import annotations

from .. import viz
from ..ndt.filters import FlowCategory
from ..ndt.stream import run_pipeline_streaming
from ..ndt.synth import DEFAULT_CHUNK_SIZE, PopulationModel
from ..units import to_mbps
from .runner import ExperimentResult, Stopwatch, records_params

#: The paper analysed 9,984 flows from June 2023.
PAPER_FLOW_COUNT = 9_984


@records_params
def run(n_flows: int = PAPER_FLOW_COUNT, seed: int = 2023,
        min_relative_shift: float = 0.25,
        model: PopulationModel | None = None,
        workers: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        resume: bool = False,
        cluster: str | None = None) -> ExperimentResult:
    """Run the Figure 2 pipeline.

    ``workers`` fans the analysis out over processes (default:
    ``REPRO_WORKERS`` env var, then CPU count); results are identical
    for any value.  ``chunk_size`` is the flows-per-shard
    memory/checkpoint unit and ``resume`` continues an interrupted
    run.  ``cluster`` ("host1:8765,host2:...") spreads the shards
    across serve nodes.
    """
    with Stopwatch() as watch:
        if cluster:
            from ..cluster import run_clustered_fig2
            result = run_clustered_fig2(
                n_flows, cluster, seed=seed, model=model,
                chunk_size=chunk_size,
                min_relative_shift=min_relative_shift,
                workers=workers, resume=resume)
        else:
            result = run_pipeline_streaming(
                n_flows, seed=seed, model=model, chunk_size=chunk_size,
                min_relative_shift=min_relative_shift,
                workers=workers, resume=resume)
        quality = result.detector_quality()

    rows = [{"category": name, "flows": count, "fraction": round(frac, 4)}
            for name, count, frac in result.summary_rows()]
    cdf_rows = [
        {"category": cat.value, "throughput_mbps": round(to_mbps(v), 3),
         "cdf": round(f, 4)}
        for cat in FlowCategory
        if result.counts.get(cat, 0) > 0
        for v, f in result.throughput_sketch(cat).points(max_points=100)
    ]

    parts = [
        f"Figure 2 reproduction: {n_flows} synthetic NDT flows "
        f"(seed={seed}, {len(result.shards)} shard(s))",
        "",
        viz.table(
            [(r["category"], r["flows"], f"{r['fraction']:.1%}")
             for r in rows],
            header=("category", "flows", "fraction")),
        "",
        viz.bar_chart(
            [r["category"] for r in rows],
            [r["fraction"] for r in rows],
            title="Flow categorization (fractions)", fmt="{:.1%}"),
        "",
        "Ground-truth validation of 'level shift => contention' "
        "(synthetic only):",
        viz.table(
            [(k, f"{v:.3g}") for k, v in quality.items()],
            header=("measure", "value")),
    ]

    metrics = {
        "n_flows": float(n_flows),
        "fraction_filtered": result.fraction_filtered,
        "fraction_app_limited": result.fraction(FlowCategory.APP_LIMITED),
        "fraction_rwnd_limited": result.fraction(FlowCategory.RWND_LIMITED),
        "fraction_cellular": result.fraction(FlowCategory.CELLULAR),
        "fraction_remaining": result.fraction(FlowCategory.REMAINING),
        "fraction_possible_contention":
            result.fraction_possible_contention,
        "detector_precision": quality["precision"],
        "detector_recall": quality["recall"],
    }
    if len(result.shards) >= 2:
        point, ci_low, ci_high = result.fraction_ci()
        metrics["possible_contention_ci_low"] = ci_low
        metrics["possible_contention_ci_high"] = ci_high
        parts.append("")
        parts.append(f"possible contention: {point:.2%} "
                     f"(95% CI [{ci_low:.2%}, {ci_high:.2%}], "
                     f"cluster bootstrap over {len(result.shards)} "
                     "shards)")
    return ExperimentResult(
        experiment="fig2",
        text="\n".join(parts),
        metrics=metrics,
        tables={"categories": rows, "throughput_cdfs": cdf_rows},
        elapsed_s=watch.elapsed,
    )

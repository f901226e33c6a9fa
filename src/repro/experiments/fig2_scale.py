"""Experiment E15: Figure 2 fractions vs population size.

The paper subsampled M-Lab to 9,984 flows; a month of NDT is millions.
This experiment runs the §3.1 pipeline at increasing
population sizes (default 10k → 1M) and reports the headline
possible-contention fraction with cluster-bootstrap confidence
intervals over shards -- the protocol for saying how stable the
paper's Figure 2 numbers are at the scale it sampled from, and how
much the uncertainty shrinks at full scale.

Per-flow seeding makes the populations *nested*: the 10k-flow
population is literally the first 10k flows of the 1M-flow one, so the
series isolates sample-size effects from population drift.  Memory
stays bounded at one shard regardless of size, and every size's shards
checkpoint to the store, so the big sizes resume (``--resume``) and
re-running any prefix of the series is free.
"""

from __future__ import annotations

from .. import viz
from ..ndt.stream import run_pipeline_streaming
from ..ndt.synth import PopulationModel
from .runner import ExperimentResult, Stopwatch, records_params

#: Default population-size ladder: 10k (paper scale) to 1M (M-Lab
#: monthly scale), half-decade steps.
DEFAULT_SIZES = (10_000, 31_623, 100_000, 316_228, 1_000_000)


@records_params
def run(population_sizes: tuple[int, ...] = DEFAULT_SIZES,
        seed: int = 2023, chunk_size: int = 5_000,
        min_relative_shift: float = 0.25,
        confidence: float = 0.95,
        model: PopulationModel | None = None,
        workers: int | None = None,
        resume: bool = False) -> ExperimentResult:
    """Possible-contention fraction + CI at each population size.

    ``chunk_size`` sets both the memory bound and the bootstrap's
    cluster unit (every size must yield >= 2 shards).  Results are
    deterministic for any ``workers`` value; ``resume`` continues an
    interrupted ladder from its store checkpoints.
    """
    sizes = sorted(set(int(n) for n in population_sizes))
    rows = []
    with Stopwatch() as watch:
        for n_flows in sizes:
            result = run_pipeline_streaming(
                n_flows, seed=seed, model=model, chunk_size=chunk_size,
                min_relative_shift=min_relative_shift,
                workers=workers, resume=resume)
            point, ci_low, ci_high = result.fraction_ci(
                confidence=confidence)
            rows.append({
                "n_flows": n_flows,
                "shards": len(result.shards),
                "fraction_possible_contention": round(point, 5),
                "ci_low": round(ci_low, 5),
                "ci_high": round(ci_high, 5),
                "ci_width": round(ci_high - ci_low, 5),
                "fraction_filtered": round(result.fraction_filtered, 5),
            })

    parts = [
        f"Figure 2 vs population size (seed={seed}, "
        f"chunk={chunk_size}, {confidence:.0%} cluster-bootstrap CIs "
        "over shards)",
        "",
        viz.table(
            [(f"{r['n_flows']:,}", r["shards"],
              f"{r['fraction_possible_contention']:.2%}",
              f"[{r['ci_low']:.2%}, {r['ci_high']:.2%}]",
              f"{r['ci_width']:.2%}")
             for r in rows],
            header=("flows", "shards", "possible contention",
                    f"{confidence:.0%} CI", "width")),
        "",
        viz.bar_chart(
            [f"{r['n_flows']:,}" for r in rows],
            [r["ci_width"] for r in rows],
            title="CI width vs population size", fmt="{:.2%}"),
        "",
        "Populations are nested (per-flow seeding): each row extends "
        "the one above, so shrinking CIs are a pure sample-size "
        "effect.",
    ]

    first, last = rows[0], rows[-1]
    metrics = {
        "sizes": float(len(rows)),
        "max_flows": float(last["n_flows"]),
        "fraction_possible_contention":
            last["fraction_possible_contention"],
        "ci_width_smallest": first["ci_width"],
        "ci_width_largest": last["ci_width"],
    }
    for r in rows:
        metrics[f"ci_width_{r['n_flows']}"] = r["ci_width"]
    return ExperimentResult(
        experiment="fig2_scale",
        text="\n".join(parts),
        metrics=metrics,
        tables={"populations": rows},
        elapsed_s=watch.elapsed,
    )

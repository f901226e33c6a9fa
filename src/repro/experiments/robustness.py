"""Experiment E13: guided search vs random fuzzing, head to head.

The acceptance claim behind ``repro qa search`` is quantitative: at
equal budget and seed, coverage-guided search must explore more of
the scenario feature map than uniform random sampling and drive
detector-confidence minima at least as low.  This experiment runs
both arms -- :func:`repro.qa.search.run_search`, and the same loop
with guidance off on the guided arm's fresh-sample stream, so the
comparison is apples to apples -- and reports coverage, the
confidence minima, and the jitter axis's contribution (how many
covered cells involve endpoint timing jitter, the 2BRobust
perturbation the detector must survive).
"""

from __future__ import annotations

from .. import viz
from ..errors import ConfigError
from ..qa.search import fresh_seed, run_search
from .runner import ExperimentResult, Stopwatch, records_params


def _jitter_cells(cells: dict) -> int:
    """Cells whose jitter component (field 6 of the id) is not "none"."""
    return sum(1 for cell_id in cells
               if cell_id.split("|")[5] != "none")


@records_params
def run(budget: int = 300, seed: int = 0,
        workers: int | None = None) -> ExperimentResult:
    """Run guided search and the random baseline at equal budget.

    Both arms are pure functions of ``(seed, budget)``; ``workers``
    changes wall-clock time only.
    """
    if budget < 1:
        raise ConfigError(f"budget must be >= 1: {budget}")
    with Stopwatch() as watch:
        with Stopwatch() as guided_watch:
            report = run_search(budget, seed=seed, workers=workers)
        with Stopwatch() as random_watch:
            control = run_search(budget, fresh_seed(seed),
                                 workers=workers, guided=False)

    guided, baseline = report.feature_map, control.feature_map
    ratio = (guided.coverage / baseline.coverage
             if baseline.coverage else float("inf"))
    gmin = guided.min_confidence()
    rmin = baseline.min_confidence()
    rows = [
        {"arm": "guided", "cells": guided.coverage,
         "jitter_cells": _jitter_cells(guided.cells),
         "min_confidence": gmin,
         "failures": len(report.failures),
         "seconds": round(guided_watch.elapsed, 2)},
        {"arm": "random", "cells": baseline.coverage,
         "jitter_cells": _jitter_cells(baseline.cells),
         "min_confidence": rmin,
         "failures": len(control.failures),
         "seconds": round(random_watch.elapsed, 2)},
    ]
    parts = [
        f"E13: coverage-guided search vs random fuzzing "
        f"(budget={budget}, seed={seed})",
        "",
        viz.table(
            [(r["arm"], r["cells"], r["jitter_cells"],
              f"{r['min_confidence']:.4f}"
              if r["min_confidence"] is not None else "n/a",
              r["failures"], f"{r['seconds']:.2f}")
             for r in rows],
            header=("arm", "cells", "jitter cells", "min confidence",
                    "failures", "seconds")),
        "",
        f"coverage ratio guided/random: {ratio:.2f}x; "
        f"{len(report.reproduced_failures)} of {len(report.failures)} "
        f"guided failures reproduced on the packet backend",
    ]
    metrics = {
        "budget": float(budget),
        "guided_cells": float(guided.coverage),
        "random_cells": float(baseline.coverage),
        "coverage_ratio": ratio,
        "guided_jitter_cells": float(_jitter_cells(guided.cells)),
        "random_jitter_cells": float(_jitter_cells(baseline.cells)),
        "guided_failures": float(len(report.failures)),
        "reproduced_failures": float(len(report.reproduced_failures)),
    }
    if gmin is not None:
        metrics["guided_min_confidence"] = gmin
    if rmin is not None:
        metrics["random_min_confidence"] = rmin
    return ExperimentResult(
        experiment="robustness",
        text="\n".join(parts),
        metrics=metrics,
        tables={"arms": rows},
        elapsed_s=watch.elapsed,
    )

"""Experiment E6: the pairwise CCA contention matrix.

The background the paper's introduction rests on: when flows *do*
contend, which CCA wins is decided by CCA dynamics -- e.g. "BBR has
been shown to take more than its long-term fair share of bandwidth when
competing against NewReno and Cubic" (Ware et al. [2]).

We race every ordered pair of CCAs on a shared DropTail bottleneck and
report the row player's throughput share.  Expected shape: ~0.5 on the
diagonal; BBR's rows above 0.5 against loss-based CCAs; delay-based
CCAs (Vegas, Copa default mode) below 0.5 against loss-based ones.

The default 1xBDP bottleneck is the regime where BBR's aggression
shows; sweep ``buffer_multiplier`` upward to reproduce the deep-buffer
reversal where loss-based CCAs out-buffer BBR's 2xBDP inflight cap.
"""

from __future__ import annotations

from .. import viz
from ..qa.scenario import FlowSpec, Scenario, run_scenario
from .runner import ExperimentResult, Stopwatch, records_params

DEFAULT_CCAS = ("reno", "cubic", "vegas", "copa", "bbr")


def _share(cca_a: str, cca_b: str, rate_mbps: float, rtt_ms_val: float,
           duration: float, buffer_multiplier: float) -> float:
    delivered = run_scenario(Scenario(
        family="flows", rate_mbps=rate_mbps, rtt_ms=rtt_ms_val,
        qdisc="droptail", duration=duration, seed=0,
        buffer_multiplier=buffer_multiplier,
        flows=(FlowSpec(cca=cca_a), FlowSpec(cca=cca_b))),
        check_invariants=False).delivered
    total = delivered["flow-0"] + delivered["flow-1"]
    return delivered["flow-0"] / total if total else 0.0


@records_params
def run(ccas: tuple = DEFAULT_CCAS, rate_mbps: float = 40.0,
        rtt_ms_val: float = 40.0, duration: float = 30.0,
        buffer_multiplier: float = 1.0) -> ExperimentResult:
    """Build the full share matrix."""
    with Stopwatch() as watch:
        matrix: dict[tuple[str, str], float] = {}
        for a in ccas:
            for b in ccas:
                matrix[(a, b)] = _share(a, b, rate_mbps, rtt_ms_val,
                                        duration, buffer_multiplier)

    rows = [{"cca_a": a, "cca_b": b, "share_a": round(share, 4)}
            for (a, b), share in matrix.items()]
    table_rows = [
        [a] + [f"{matrix[(a, b)]:.2f}" for b in ccas]
        for a in ccas
    ]
    bbr_vs_loss, vegas_vs_loss = (
        [matrix[(row, loss)] for loss in ("reno", "cubic")
         if row in ccas and loss in ccas] for row in ("bbr", "vegas"))

    parts = [
        f"E6: pairwise throughput share of the ROW CCA vs the column "
        f"CCA ({rate_mbps:.0f} Mbit/s, {rtt_ms_val:.0f} ms, "
        f"{buffer_multiplier:.0f}x BDP DropTail, {duration:.0f} s)",
        "",
        viz.table(table_rows, header=("row \\ col", *ccas)),
        "",
        "Shape checks: BBR > 0.5 vs loss-based (Ware et al.); "
        "delay-based < 0.5 vs loss-based.",
    ]
    metrics = {
        "bbr_share_vs_loss_min": min(bbr_vs_loss) if bbr_vs_loss else 0.0,
        "vegas_share_vs_loss_max": max(vegas_vs_loss)
            if vegas_vs_loss else 1.0,
    }
    for (a, b), share in matrix.items():
        metrics[f"share_{a}_vs_{b}"] = share
    return ExperimentResult(
        experiment="fairness_matrix",
        text="\n".join(parts),
        metrics=metrics,
        tables={"matrix": rows},
        elapsed_s=watch.elapsed,
    )

"""Experiment E3: fair queueing eliminates CCA contention (§2.1).

"a universal deployment of fair queueing (for example) would entirely
eliminate the role of CCA dynamics in determining bandwidth
allocations."

We race CCA pairs on a shared bottleneck under DropTail vs per-flow DRR
fair queueing and report Jain's index and harm.  Expected shape: under
DropTail, aggressive pairings (BBR vs loss-based) are skewed; under FQ,
every pairing lands at Jain ~= 1.0 regardless of CCA.
"""

from __future__ import annotations

from .. import viz
from ..analysis.fairness import harm, jain_index
from ..core.detector import ordered_mean
from ..qa.scenario import FlowSpec, Scenario, run_scenario
from ..units import mbps, ordered_sum, to_mbps
from .runner import ExperimentResult, Stopwatch, records_params

DEFAULT_PAIRS = (("reno", "bbr"), ("cubic", "bbr"), ("reno", "cubic"),
                 ("vegas", "cubic"))


def _race(pair: tuple[str, str], qdisc_name: str, rate_mbps: float,
          rtt_ms: float, duration: float,
          buffer_multiplier: float) -> dict:
    delivered = run_scenario(Scenario(
        family="flows", rate_mbps=rate_mbps, rtt_ms=rtt_ms,
        qdisc=qdisc_name, duration=duration, seed=0,
        buffer_multiplier=buffer_multiplier,
        flows=tuple(FlowSpec(cca=name) for name in pair)),
        check_invariants=False).delivered
    rates = [delivered[f"flow-{i}"] / duration for i in range(len(pair))]
    rate = mbps(rate_mbps)
    # Solo reference for harm: half the link (the fair share).
    fair_share = rate / 2.0
    return {
        "pair": f"{pair[0]} vs {pair[1]}",
        "qdisc": qdisc_name,
        "rate_a_mbps": round(to_mbps(rates[0]), 2),
        "rate_b_mbps": round(to_mbps(rates[1]), 2),
        "jain": round(jain_index(rates), 4),
        "harm_to_a": round(harm(fair_share, rates[0]), 4),
        "harm_to_b": round(harm(fair_share, rates[1]), 4),
        "utilization": round(ordered_sum(rates) / rate, 4),
    }


@records_params
def run(pairs: tuple = DEFAULT_PAIRS, rate_mbps: float = 40.0,
        rtt_ms: float = 40.0, duration: float = 30.0,
        buffer_multiplier: float = 1.0) -> ExperimentResult:
    """Race each pair under DropTail and FQ.

    ``buffer_multiplier`` defaults to 1 BDP: the regime where BBR's
    advantage over loss-based CCAs is most pronounced (in deep buffers
    loss-based flows out-buffer BBR's 2xBDP inflight cap -- Ware et
    al. [2], reproduced in E6).
    """
    with Stopwatch() as watch:
        rows = [
            _race(pair, qdisc_name, rate_mbps, rtt_ms, duration,
                  buffer_multiplier)
            for pair in pairs
            for qdisc_name in ("droptail", "fq")
        ]

    droptail_jain = [r["jain"] for r in rows if r["qdisc"] == "droptail"]
    fq_jain = [r["jain"] for r in rows if r["qdisc"] == "fq"]

    parts = [
        f"E3: CCA pairs on a {rate_mbps:.0f} Mbit/s, {rtt_ms:.0f} ms "
        f"bottleneck ({buffer_multiplier:.0f}x BDP buffer), "
        f"DropTail vs per-flow FQ",
        "",
        viz.table(
            [(r["pair"], r["qdisc"], r["rate_a_mbps"], r["rate_b_mbps"],
              r["jain"], r["utilization"]) for r in rows],
            header=("pair", "qdisc", "A Mbit/s", "B Mbit/s", "Jain",
                    "util")),
        "",
        f"worst Jain under DropTail: {min(droptail_jain):.3f}",
        f"worst Jain under FQ:       {min(fq_jain):.3f}",
    ]
    metrics = {
        "min_jain_droptail": min(droptail_jain),
        "min_jain_fq": min(fq_jain),
        "mean_jain_droptail": ordered_mean(droptail_jain),
        "mean_jain_fq": ordered_mean(fq_jain),
    }
    return ExperimentResult(
        experiment="fq_ablation",
        text="\n".join(parts),
        metrics=metrics,
        tables={"races": rows},
        elapsed_s=watch.elapsed,
    )

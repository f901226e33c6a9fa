"""Experiment E7: the measurement study the paper proposes.

A fleet of elasticity probes over a sampled path population with known
ground truth: how accurately does the §3.2 technique classify paths,
and what does the campaign say about the hypothesis?  Includes the
threshold ROC sweep DESIGN.md calls out as a design-choice ablation.
"""

from __future__ import annotations

from .. import viz
from ..core.axes import drop_defaults
from ..core.campaign import Campaign, CampaignResult
from ..core.detector import (ContentionDetector, confusion_counts,
                             ordered_mean)
from ..core.hypothesis import evaluate_hypothesis
from .runner import ExperimentResult, Stopwatch, records_params


def _roc_rows(campaign: CampaignResult,
              thresholds: tuple[float, ...]) -> list[dict]:
    rows = []
    for threshold in thresholds:
        detector = ContentionDetector(threshold=threshold)
        verdicts = [detector.verdict(list(r.report.readings)).contending
                    for r in campaign.results]
        truths = [r.spec.truly_contending for r in campaign.results]
        quality = confusion_counts(verdicts, truths)
        rows.append({"threshold": threshold,
                     "precision": round(quality["precision"], 4),
                     "recall": round(quality["recall"], 4),
                     "accuracy": round(quality["accuracy"], 4)})
    return rows


@records_params
def run(n_paths: int = 48, duration: float = 30.0, seed: int = 1,
        fq_fraction: float = 0.3,
        roc_thresholds: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0, 6.0, 9.0),
        workers: int | None = None,
        resume: bool = False,
        backend: str = "packet",
        medium: str = "queue",
        cluster: str | None = None) -> ExperimentResult:
    """Run the campaign and evaluate the hypothesis.

    ``workers`` fans the per-path probe simulations out over processes
    (default: ``REPRO_WORKERS`` env var, then CPU count); results are
    identical for any value.  When the ambient result store is active
    (``repro run`` without ``--no-cache``, or a ``using_store`` scope),
    completed paths are cached and checkpointed; ``resume`` addition-
    ally skips paths a prior interrupted run quarantined as failing.
    ``backend`` selects "packet" (the event-driven reference) or
    "fluid" (20-50x faster; see DESIGN.md for the validity envelope).
    ``cluster`` ("host1:8765,host2:...") shards the per-path work
    across ``repro serve`` nodes and merges results back into the
    local store -- byte-identical to a local run (SERVING.md).
    ``medium`` replaces every path's bottleneck queue with a shared
    medium ("csma-<n>", optionally "-prio"); see DESIGN.md and E16
    for how that bends the detector's calibration.
    """
    with Stopwatch() as watch:
        if cluster:
            from ..cluster import run_clustered_campaign
            params = drop_defaults({
                "n_paths": n_paths, "seed": seed, "duration": duration,
                "fq_fraction": fq_fraction, "backend": backend,
                "medium": medium})
            campaign = run_clustered_campaign(
                params, cluster, workers=workers, resume=resume)
        else:
            campaign = Campaign(n_paths=n_paths, seed=seed,
                                duration=duration,
                                fq_fraction=fq_fraction,
                                backend=backend,
                                medium=medium).run(workers=workers,
                                                   resume=resume)
        evaluation = evaluate_hypothesis(campaign)
        roc = _roc_rows(campaign, roc_thresholds)
        groups = campaign.by_cross_traffic()

    group_rows = [{
        "cross_traffic": name,
        "paths": len(values),
        "mean_elasticity": round(ordered_mean(values), 3),
        "max_elasticity": round(max(values), 3),
    } for name, values in sorted(groups.items())]

    path_rows = [{
        "rate_mbps": r.spec.rate_mbps,
        "rtt_ms": r.spec.rtt_ms,
        "qdisc": r.spec.qdisc,
        "cross_traffic": r.spec.cross_traffic,
        "mean_elasticity": round(r.verdict.mean_elasticity, 3),
        "verdict": r.verdict.contending,
        "category": r.verdict.category,
        "truth": r.spec.truly_contending,
    } for r in campaign.results]

    quality = campaign.detector_quality()
    masked = campaign.masked_summary()
    failed_parts = []
    if campaign.failed:
        failed_parts = [
            "",
            f"QUARANTINED: {len(campaign.failed)} path(s) kept failing "
            "and were excluded from the aggregates:",
        ] + [f"  {f.spec.cross_traffic}@{f.spec.qdisc} "
             f"seed={f.spec.seed}: {f.error_type}: {f.error} "
             f"({f.attempts} attempts)" for f in campaign.failed]
    parts = [
        f"E7: elasticity-probe campaign over {n_paths} sampled paths "
        f"({fq_fraction:.0%} with FQ bottlenecks)",
        "",
        viz.table(
            [(g["cross_traffic"], g["paths"], g["mean_elasticity"],
              g["max_elasticity"]) for g in group_rows],
            header=("cross traffic", "paths", "mean elasticity",
                    "max elasticity")),
        "",
        f"detector (visible paths): precision={quality['precision']:.2f} "
        f"recall={quality['recall']:.2f} "
        f"accuracy={quality['accuracy']:.2f}",
        f"isolation-masked paths (elastic cross behind FQ): "
        f"{masked['n_masked']:.0f}, of which "
        f"{masked['fraction_reads_contending']:.0%} read contending "
        f"(the instrument cannot distinguish FQ capping from CCA "
        f"contention; see EXPERIMENTS.md)",
        "",
        "Threshold ROC sweep:",
        viz.table(
            [(r["threshold"], r["precision"], r["recall"], r["accuracy"])
             for r in roc],
            header=("threshold", "precision", "recall", "accuracy")),
        "",
        evaluation.describe(),
    ] + failed_parts
    metrics = {
        "n_failed_paths": float(len(campaign.failed)),
        "fraction_contending": campaign.fraction_contending,
        "true_fraction_contending": campaign.true_fraction_contending,
        "detector_precision": quality["precision"],
        "detector_recall": quality["recall"],
        "detector_accuracy": quality["accuracy"],
        "n_masked": masked["n_masked"],
        "masked_reads_contending":
            masked["fraction_reads_contending"],
        "hypothesis_supported": 1.0 if evaluation.supported else 0.0,
    }
    return ExperimentResult(
        experiment="campaign_eval",
        text="\n".join(parts),
        metrics=metrics,
        tables={"paths": path_rows, "roc": roc,
                "by_cross_traffic": group_rows},
        elapsed_s=watch.elapsed,
    )

"""Turning elasticity readings into contention verdicts.

The probe emits a time series of elasticity values; a path is judged
to carry contending (elastic) cross traffic when the readings exceed a
threshold persistently.  The detector offers both the simple
mean-threshold rule and a fraction-above rule, and computes
precision/recall style quality measures against ground truth for the
campaign evaluation (E7).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..units import ordered_sum
from .elasticity import ElasticityReading


def ordered_mean(values: list[float]) -> float:
    """Mean of a non-empty list, added left to right (a verdict and a
    probe report are stored results: see :func:`ordered_sum`)."""
    return ordered_sum(values) / len(values)


@dataclass(frozen=True)
class DetectorVerdict:
    """One path's verdict.

    Attributes:
        contending: the detector's binary decision (confident band).
        category: three-way call -- "contending" (confidently elastic),
            "clean" (confidently not), or "inconclusive".  Two kinds of
            real traffic live in the gray zone by their nature:
            intermittently-elastic application traffic (ABR video's
            chunk transfers) and weakly pulse-reactive rate-based CCAs
            (BBRv1); an honest measurement study reports them as such
            rather than forcing a coin flip.
        mean_elasticity: mean over the readings considered.
        fraction_above: fraction of readings above threshold.
        n_readings: number of readings considered.
    """

    contending: bool
    category: str
    mean_elasticity: float
    fraction_above: float
    n_readings: int


class ContentionDetector:
    """Threshold detector over elasticity readings.

    Args:
        threshold: elasticity above this counts as elastic (the binary
            decision boundary, kept for simple callers).
        clean_below / contending_above: the three-way bands; between
            them the verdict category is "inconclusive".
        rule: "mean" (mean elasticity >= threshold) or "fraction"
            (>= ``min_fraction`` of readings above threshold).
        min_fraction: for the "fraction" rule.
        warmup: discard readings earlier than this time.
    """

    def __init__(self, threshold: float = 2.0, rule: str = "mean",
                 min_fraction: float = 0.3, warmup: float = 0.0,
                 clean_below: float = 1.5,
                 contending_above: float = 2.6):
        if threshold <= 0:
            raise ConfigError(f"threshold must be positive: {threshold}")
        if rule not in ("mean", "fraction"):
            raise ConfigError(f"unknown rule {rule!r}")
        if not 0 < min_fraction <= 1:
            raise ConfigError(f"min_fraction must be in (0, 1]: {min_fraction}")
        if not 0 < clean_below <= contending_above:
            raise ConfigError("need 0 < clean_below <= contending_above")
        self.threshold = threshold
        self.rule = rule
        self.min_fraction = min_fraction
        self.warmup = warmup
        self.clean_below = clean_below
        self.contending_above = contending_above

    def fingerprint_config(self) -> dict:
        """Canonical config for :mod:`repro.store` fingerprints: two
        detectors with equal parameters must hash identically."""
        return {
            "threshold": self.threshold,
            "rule": self.rule,
            "min_fraction": self.min_fraction,
            "warmup": self.warmup,
            "clean_below": self.clean_below,
            "contending_above": self.contending_above,
        }

    def verdict(self, readings: list[ElasticityReading] | tuple
                ) -> DetectorVerdict:
        """Judge one path's readings."""
        usable = [r for r in readings if r.time >= self.warmup]
        if not usable:
            return DetectorVerdict(contending=False, category="clean",
                                   mean_elasticity=0.0,
                                   fraction_above=0.0, n_readings=0)
        values = [r.elasticity for r in usable]
        mean = ordered_mean(values)
        above = sum(1 for v in values if v >= self.threshold) / len(values)
        if self.rule == "mean":
            contending = mean >= self.threshold
        else:
            contending = above >= self.min_fraction
        if mean >= self.contending_above:
            category = "contending"
        elif mean < self.clean_below:
            category = "clean"
        else:
            category = "inconclusive"
        return DetectorVerdict(contending=contending, category=category,
                               mean_elasticity=mean,
                               fraction_above=above, n_readings=len(usable))


def probe_summary(report) -> dict:
    """The default detector's verdict on a probe report, as the plain
    dict a QA :class:`~repro.qa.scenario.ScenarioOutcome` carries."""
    verdict = ContentionDetector().verdict(list(report.readings))
    return {
        "mean_elasticity": verdict.mean_elasticity,
        "contending": verdict.contending,
        "category": verdict.category,
        "n_readings": verdict.n_readings,
    }


def confusion_counts(verdicts: list[bool], truths: list[bool]
                     ) -> dict[str, float]:
    """Precision/recall/accuracy of detector verdicts vs ground truth."""
    if len(verdicts) != len(truths):
        raise ConfigError("verdicts and truths must align")
    tp = sum(1 for v, t in zip(verdicts, truths) if v and t)
    fp = sum(1 for v, t in zip(verdicts, truths) if v and not t)
    tn = sum(1 for v, t in zip(verdicts, truths) if not v and not t)
    fn = sum(1 for v, t in zip(verdicts, truths) if not v and t)
    total = max(1, len(verdicts))
    return {
        "tp": float(tp), "fp": float(fp), "tn": float(tn), "fn": float(fn),
        "precision": tp / (tp + fp) if tp + fp else 1.0,
        "recall": tp / (tp + fn) if tp + fn else 1.0,
        "accuracy": (tp + tn) / total,
    }

"""Turning elasticity readings into contention verdicts.

The probe emits a time series of elasticity values; a path is judged
to carry contending (elastic) cross traffic when the mean reading
reaches a threshold.  Fixed bands around it sort each path into
"contending", "clean" or "inconclusive", and :func:`confusion_counts`
computes precision/recall style quality measures against ground truth
for the campaign evaluation (E7).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..units import ordered_sum
from .elasticity import ElasticityReading

#: Verdict bands: a mean elasticity below ``CLEAN_BELOW`` is "clean",
#: at or above ``CONTENDING_ABOVE`` "contending", and between them
#: "inconclusive".
CLEAN_BELOW = 1.5
CONTENDING_ABOVE = 2.6


def ordered_mean(values: list[float]) -> float:
    """Mean of a non-empty list, added left to right (a verdict and a
    probe report are stored results: see :func:`ordered_sum`)."""
    return ordered_sum(values) / len(values)


@dataclass(frozen=True)
class DetectorVerdict:
    """One path's verdict.

    Attributes:
        contending: the detector's binary decision, mean elasticity
            >= the threshold (2.0 by default; below the confident
            band, which starts at :data:`CONTENDING_ABOVE`).
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
    """Mean-threshold detector over elasticity readings.

    Args:
        threshold: a mean elasticity at or above this is contending
            (the binary decision).  The three-way category uses the
            fixed bands :data:`CLEAN_BELOW` and :data:`CONTENDING_ABOVE`.
    """

    def __init__(self, threshold: float = 2.0):
        if threshold <= 0:
            raise ConfigError(f"threshold must be positive: {threshold}")
        self.threshold = threshold

    def fingerprint_config(self) -> dict:
        """Canonical config for :mod:`repro.store` fingerprints: two
        detectors with equal parameters must hash identically."""
        # Retired keys as literals, so that no stored fingerprint moves.
        return {
            "threshold": self.threshold,
            "rule": "mean",
            "min_fraction": 0.3,
            "warmup": 0.0,
            "clean_below": CLEAN_BELOW,
            "contending_above": CONTENDING_ABOVE,
        }

    def verdict(self, readings: list[ElasticityReading] | tuple
                ) -> DetectorVerdict:
        """Judge one path's readings."""
        values = [r.elasticity for r in readings]
        if not values:
            return DetectorVerdict(contending=False, category="clean",
                                   mean_elasticity=0.0,
                                   fraction_above=0.0, n_readings=0)
        mean = ordered_mean(values)
        above = sum(1 for v in values if v >= self.threshold) / len(values)
        if mean >= CONTENDING_ABOVE:
            category = "contending"
        elif mean < CLEAN_BELOW:
            category = "clean"
        else:
            category = "inconclusive"
        return DetectorVerdict(contending=mean >= self.threshold,
                               category=category, mean_elasticity=mean,
                               fraction_above=above,
                               n_readings=len(values))


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

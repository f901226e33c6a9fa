"""Evaluating the paper's hypothesis from campaign data.

The hypothesis: "there do not remain common scenarios in the modern
Internet in which CCA contention is the dominant factor in determining
flows' bandwidth allocations."  Operationalized: across a path
population, the fraction of paths where an elasticity probe finds
contending cross traffic is small, and shrinks further as isolation
(fair queueing) deployment grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.stats import bootstrap_ci
from .campaign import CampaignResult

#: What "common" means: the hypothesis is supported if the upper bound
#: of the 95% bootstrap interval on the contending fraction stays
#: below this.
THRESHOLD = 0.2


@dataclass(frozen=True)
class HypothesisEvaluation:
    """The verdict on the paper's hypothesis for one campaign.

    Attributes:
        fraction_contending: measured fraction of paths with contention.
        ci_low / ci_high: bootstrap confidence interval on it.
        threshold: the "common scenario" cutoff the evaluation used.
        supported: fraction (upper CI) below the threshold.
        detector_accuracy: how trustworthy the measurement is, from
            ground truth (synthetic campaigns only).
    """

    fraction_contending: float
    ci_low: float
    ci_high: float
    threshold: float
    supported: bool
    detector_accuracy: float
    n_paths: int

    def describe(self) -> str:
        verdict = "SUPPORTED" if self.supported else "NOT SUPPORTED"
        return (
            f"hypothesis {verdict}: contention on "
            f"{self.fraction_contending:.1%} of {self.n_paths} paths "
            f"(95% CI [{self.ci_low:.1%}, {self.ci_high:.1%}]), "
            f"threshold {self.threshold:.0%}, "
            f"detector accuracy {self.detector_accuracy:.1%}"
        )


def evaluate_hypothesis(campaign: CampaignResult) -> HypothesisEvaluation:
    """Judge the hypothesis on a campaign's results, at
    :data:`THRESHOLD`."""
    indicators = [1.0 if r.verdict.contending else 0.0
                  for r in campaign.results]
    point, lo, hi = bootstrap_ci(indicators)
    quality = campaign.detector_quality()
    return HypothesisEvaluation(
        fraction_contending=point,
        ci_low=lo,
        ci_high=hi,
        threshold=THRESHOLD,
        supported=hi < THRESHOLD,
        detector_accuracy=quality["accuracy"],
        n_paths=len(campaign.results),
    )

"""The scenario feature map: coverage cells for guided search.

Coverage-guided fuzzing needs a notion of "somewhere new".  A
:class:`FeatureCell` coarsens one scenario *and its outcome* into a
tuple of categorical features -- qdisc, CCA-mix class, cross-traffic
type, load ratio, buffer depth, timing-jitter level, backend, the
shared-medium regime (queue vs CSMA/CA, bucketed by station count),
plus three outcome-derived buckets (detector-confidence, probe-share,
and queue residency) --
and the :class:`FeatureMap` keeps per-cell statistics: hit counts,
failures, and the lowest detector confidence seen.  A scenario is
interesting (and enters the search corpus) when it lands in a cell
nobody has hit before or drags a confidence minimum lower; the map
itself, serialized, is the robustness-envelope artifact's surface
(Contracts, PAPERS.md: map the region where the detector's
assumptions hold, don't just sample it).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.detector import ContentionDetector
from ..medium.config import parse_medium
from ..sim.network import default_buffer_packets
from ..units import mbps, ms
from .scenario import Scenario, ScenarioOutcome

#: CCA behaviour classes: how a CCA reacts to congestion signals is
#: what the detector's elasticity logic keys on, not the CCA's name.
CCA_CLASSES = {
    "reno": "loss", "newreno": "loss", "cubic": "loss",
    "vegas": "delay", "copa": "delay", "ledbat": "delay",
    "bbr": "rate",
    "dctcp": "ecn",
    "cbr": "inelastic",
}

#: Jitter-amplitude bucket edges: none (0), low (<= this), high.
LOW_JITTER_MAX = 0.15

#: Confidence bucket edges (distance of mean elasticity from the
#: detector threshold): below the first edge a single perturbation
#: flips the verdict.
CONFIDENCE_EDGES = ((0.25, "critical"), (1.0, "low"), (2.5, "mid"))

#: Queue-residency occupancy edges (end-of-run residual packets over
#: the configured buffer): at or above the second edge the buffer is
#: effectively full, above the first a standing queue formed.
RESIDENCY_STANDING = 0.25
RESIDENCY_FULL = 0.9


def cca_mix_class(scenario: Scenario) -> str:
    """The scenario's CCA-mix class ("probe", one class, or "mixed")."""
    if scenario.family == "probe":
        return "probe"
    classes = {CCA_CLASSES[f.cca] for f in scenario.flows}
    if len(classes) == 1:
        return classes.pop()
    return "mixed"


def load_bucket(scenario: Scenario, outcome: ScenarioOutcome) -> str:
    """How loaded the link was, from delivered bytes vs capacity."""
    capacity = scenario.rate_mbps * 1e6 / 8.0 * scenario.duration
    ratio = outcome.total_delivered / capacity if capacity > 0 else 0.0
    if ratio < 0.25:
        return "light"
    if ratio < 0.6:
        return "moderate"
    if ratio < 0.9:
        return "heavy"
    return "saturated"


def buffer_bucket(scenario: Scenario) -> str:
    """Buffer depth relative to the BDP rule of thumb."""
    m = scenario.buffer_multiplier
    if m < 1.0:
        return "shallow"
    if m < 2.0:
        return "bdp"
    return "deep"


def jitter_bucket(scenario: Scenario) -> str:
    """Timing-jitter level: none / low / high."""
    a = scenario.timing_jitter
    if a == 0.0:
        return "none"
    if a <= LOW_JITTER_MAX:
        return "low"
    return "high"


def medium_bucket(scenario: Scenario) -> str:
    """Shared-medium regime: ``queue`` for a plain FIFO bottleneck,
    otherwise the CSMA/CA access mode bucketed by station count (the
    detector's confidence degrades with contenders, not with the exact
    count, so 3 vs 4 stations is the same cell)."""
    spec = parse_medium(scenario.medium)
    if spec is None:
        return "queue"
    if spec.n_stations <= 2:
        scale = "2"
    elif spec.n_stations <= 4:
        scale = "4"
    elif spec.n_stations <= 8:
        scale = "8"
    else:
        scale = "many"
    if spec.priority == "mixed":
        return f"csma-{scale}-prio"
    return f"csma-{scale}"


def queue_residency_bucket(scenario: Scenario,
                           outcome: ScenarioOutcome) -> str:
    """Where the bottleneck queue ended up, as an outcome feature.

    Standing queues are what separate a detector seeing *contention*
    from one seeing *its own self-induced delay*, so the end-of-run
    residual occupancy (relative to the configured buffer) is a
    coverage axis in its own right:

    * ``empty`` -- no residual and no drops: the queue drained.
    * ``transient`` -- drops happened or a small residual remains, but
      occupancy stayed under :data:`RESIDENCY_STANDING`.
    * ``standing`` -- a persistent queue holds a quarter to ~90% of
      the buffer.
    * ``full`` -- the run ended with the buffer essentially full.
    """
    buf = default_buffer_packets(mbps(scenario.rate_mbps),
                                 ms(scenario.rtt_ms),
                                 scenario.buffer_multiplier)
    stats = outcome.qdisc_stats
    occupancy = (stats.get("residual_packets", 0.0) / buf
                 if buf > 0 else 0.0)
    if occupancy >= RESIDENCY_FULL:
        return "full"
    if occupancy >= RESIDENCY_STANDING:
        return "standing"
    if occupancy > 0.0 or stats.get("drops", 0.0) > 0:
        return "transient"
    return "empty"


def detector_confidence(outcome: ScenarioOutcome) -> float | None:
    """Distance of the probe's mean elasticity from the threshold of
    the detector that judged it (None for flows-family scenarios: no
    detector ran)."""
    if outcome.probe is None:
        return None
    return abs(outcome.probe.get("mean_elasticity", 0.0)
               - ContentionDetector().threshold)


def confidence_bucket(confidence: float | None) -> str:
    if confidence is None:
        return "n/a"
    for edge, name in CONFIDENCE_EDGES:
        if confidence < edge:
            return name
    return "high"


def probe_share_bucket(outcome: ScenarioOutcome) -> str:
    """The probe's share of delivered bytes, in 0.2-wide bins."""
    if outcome.probe is None:
        return "n/a"
    total = outcome.total_delivered
    share = outcome.delivered.get("probe", 0) / total if total else 0.0
    lo = min(4, int(share / 0.2)) * 0.2
    return f"{lo:.1f}-{lo + 0.2:.1f}"


@dataclass(frozen=True)
class FeatureCell:
    """One cell of the coverage map (all components categorical)."""

    qdisc: str
    mix: str
    cross: str
    load: str
    buffer: str
    jitter: str
    backend: str
    confidence: str
    probe_share: str
    queue: str = "empty"
    medium: str = "queue"

    def as_id(self) -> str:
        """Stable string id (the map's dict key and report row key).

        New axes append at the end, so positional consumers of older
        ids (e.g. jitter at index 5) keep working.
        """
        return "|".join((self.qdisc, self.mix, self.cross, self.load,
                         self.buffer, self.jitter, self.backend,
                         self.confidence, self.probe_share, self.queue,
                         self.medium))


def feature_cell(scenario: Scenario, outcome: ScenarioOutcome
                 ) -> FeatureCell:
    """Coarsen one (scenario, outcome) pair into its coverage cell."""
    return FeatureCell(
        qdisc=scenario.qdisc,
        mix=cca_mix_class(scenario),
        cross=scenario.cross_traffic,
        load=load_bucket(scenario, outcome),
        buffer=buffer_bucket(scenario),
        jitter=jitter_bucket(scenario),
        backend=scenario.backend,
        confidence=confidence_bucket(detector_confidence(outcome)),
        probe_share=probe_share_bucket(outcome),
        queue=queue_residency_bucket(scenario, outcome),
        medium=medium_bucket(scenario),
    )


class FeatureMap:
    """Per-cell coverage statistics for one search campaign.

    ``observe`` returns what made the observation interesting (a new
    cell, or a new per-cell confidence minimum), which is exactly the
    corpus-admission rule of :mod:`repro.qa.search`.
    """

    def __init__(self):
        self.cells: dict[str, dict] = {}

    def observe(self, scenario: Scenario, outcome: ScenarioOutcome,
                failed: bool = False) -> tuple[FeatureCell, bool, bool]:
        """Record one run.

        Returns:
            (cell, new_cell, new_min): the cell hit, whether it was
            previously unseen, and whether this run set a new per-cell
            detector-confidence minimum.
        """
        cell = feature_cell(scenario, outcome)
        confidence = detector_confidence(outcome)
        cell_id = cell.as_id()
        stats = self.cells.get(cell_id)
        new_cell = stats is None
        if new_cell:
            stats = {"hits": 0, "failures": 0, "min_confidence": None}
            self.cells[cell_id] = stats
        stats["hits"] += 1
        if failed:
            stats["failures"] += 1
        new_min = False
        if confidence is not None:
            prior = stats["min_confidence"]
            if prior is None or confidence < prior - 1e-12:
                stats["min_confidence"] = confidence
                new_min = not new_cell
        return cell, new_cell, new_min

    @property
    def coverage(self) -> int:
        """Number of distinct cells hit."""
        return len(self.cells)

    def min_confidence(self) -> float | None:
        """The lowest detector confidence seen anywhere (None if no
        probe-family scenario ran)."""
        values = [s["min_confidence"] for s in self.cells.values()
                  if s["min_confidence"] is not None]
        return min(values) if values else None

    def to_dict(self) -> dict:
        """Deterministic plain-dict form (cells sorted by id)."""
        # Retired threshold keys as literals, so that no report digest
        # or envelope fingerprint moves.
        return {
            "threshold": 2.0,
            "qdisc_thresholds": {},
            "coverage": self.coverage,
            "min_confidence": self.min_confidence(),
            "cells": {
                cell_id: {
                    "hits": s["hits"],
                    "failures": s["failures"],
                    "min_confidence": s["min_confidence"],
                }
                for cell_id, s in sorted(self.cells.items())
            },
        }

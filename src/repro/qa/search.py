"""The QA loop: coverage-guided adversarial search, or plain fuzzing.

:func:`run_search` *steers* by default: it keeps a corpus of scenarios
that hit new :mod:`repro.qa.features` cells or dragged a detector-
confidence minimum lower, and spends most of its budget mutating
corpus entries (power-schedule weighted toward rarely-hit cells and
low confidence) rather than sampling fresh.  With ``guided=False``
candidate *k* is just ``sample_scenario(k, seed)``: that is ``repro qa
fuzz`` (on packet) and E13's random control arm (on fluid).

Guided exploration runs on the fluid backend -- 46x cheaper per
scenario -- and every fluid failure is replayed on the packet backend
before it is reported, so a finding is never just a fluid-model
artifact.  A fluid candidate is judged by the corpus-replay oracle set
(the cheap single-run oracles); a packet candidate *k* by the
period-gated suite, ``oracles_for_index(scenario, k)``.

The output doubles as the detector's **robustness envelope**: the
feature-cell pass/fail/confidence surface (:func:`build_envelope`),
store-cached by (:data:`~repro.qa.oracles.SUITE_VERSION`, seed,
budget, detector config) and diffable across PRs
(:func:`diff_envelopes`) -- the Contracts framing of mapping where the
detector's assumptions hold.

Determinism contract: the whole search -- corpus, report, envelope --
is a pure function of ``(seed, budget, guided, backend)``.
All random draws happen in the sequential generation loop with a
fixed batch size, and batches are evaluated through the ordered
:class:`~repro.runtime.pool.ParallelExecutor`, so the worker count
changes wall-clock time only, never a byte of output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.axes import preload_backend
from ..core.detector import ContentionDetector
from ..runtime.pool import ParallelExecutor, derive_seed
from ..store.artifacts import ArtifactStore
from ..store.fingerprint import fingerprint
from .corpus import DEFAULT_CORPUS_DIR, CorpusCase, case_for, save_case
from .features import (FeatureMap, buffer_bucket, cca_mix_class,
                       detector_confidence, jitter_bucket, medium_bucket)
from .fuzz import mutate_scenario, sample_scenario
from .oracles import (FAULT_ENV, ORACLES, SUITE_VERSION, OracleFinding,
                      run_oracles)
from .scenario import Scenario, run_scenario, scenario_fingerprint
from .shrink import shrink

#: Scenarios generated per sequential batch.  Fixed (never derived
#: from the worker count) -- this is what makes the search
#: worker-count invariant.
SEARCH_BATCH = 8

#: Fraction of each batch drawn fresh from the random sampler rather
#: than mutated from the corpus (keeps exploration alive once the
#: corpus is rich).
FRESH_FRACTION = 0.15

#: Of the mutation slots, the fraction spent chasing detector-
#: confidence minima (exploitation) rather than cell novelty
#: (exploration).  Minimize children usually land in already-visited
#: cells, so this is a direct coverage-vs-minima tradeoff.
MINIMIZE_FRACTION = 0.2

#: Mutation candidates drawn per child; the one whose scenario-side
#: projection is least-hit wins (novelty steering).  Mutation is
#: microseconds against ~50 ms per fluid run, so drawing generously
#: is nearly free.
MUTATION_TRIES = 12

#: Fresh-sample draws per fresh slot; the first with an unvisited
#: projection wins (novelty-filtered fresh sampling).
FRESH_TRIES = 8

#: Probability a child gets a second stacked mutation (bigger jumps
#: escape the parent's cell neighbourhood).
STACK_PROBABILITY = 0.4

_ORACLES_BY_NAME = {oracle.name: oracle for oracle in ORACLES}


def fresh_seed(seed: int) -> int:
    """The sample stream the guided search draws fresh candidates
    from.  E13's random arm is ``run_search(budget, fresh_seed(seed),
    guided=False)``, so both arms start from one scenario stream."""
    return derive_seed(seed, 1, "qa-search-fresh")


def _run_search_scenario(scenario: Scenario, index: int | None = None
                         ) -> tuple[object, tuple[OracleFinding, ...]]:
    """Module-level (picklable) worker task: run + judge one candidate.

    ``index`` drives the oracles' period gating; ``None`` judges with
    the corpus-replay set, which re-runs no simulation.
    """
    outcome = run_scenario(scenario, check_invariants=True)
    findings = run_oracles(scenario, outcome, run_scenario, index=index)
    return outcome, tuple(findings)


def _run_search_task(task: tuple[Scenario, int | None]):
    return _run_search_scenario(*task)


@dataclass
class SearchEntry:
    """One corpus member: a scenario that was interesting when found."""

    scenario: Scenario
    cell_id: str
    confidence: float | None
    uses: int = 0


@dataclass(frozen=True)
class SearchFailure:
    """One oracle failure found by the search, with its packet replay."""

    scenario: Scenario
    oracle: str
    messages: tuple[str, ...]
    packet_messages: tuple[str, ...]
    reproduced: bool

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "oracle": self.oracle,
            "messages": list(self.messages),
            "packet_messages": list(self.packet_messages),
            "reproduced": self.reproduced,
        }


@dataclass
class SearchReport:
    """The outcome of one search campaign."""

    seed: int
    budget: int
    feature_map: FeatureMap
    corpus: list[SearchEntry] = field(default_factory=list)
    failures: list[SearchFailure] = field(default_factory=list)
    evaluated: int = 0

    @property
    def reproduced_failures(self) -> list[SearchFailure]:
        return [f for f in self.failures if f.reproduced]

    def to_dict(self) -> dict:
        """Deterministic plain-dict form (the regression-test unit:
        equal searches must serialize byte-identically)."""
        return {
            "seed": self.seed,
            "budget": self.budget,
            "suite": SUITE_VERSION,
            # Retired key as a literal, so that no report digest moves.
            "threshold": 2.0,
            "evaluated": self.evaluated,
            "map": self.feature_map.to_dict(),
            "corpus": [
                {"fingerprint": scenario_fingerprint(e.scenario),
                 "cell": e.cell_id,
                 "confidence": e.confidence}
                for e in self.corpus
            ],
            "failures": [f.to_dict() for f in self.failures],
        }

    def render(self) -> str:
        """Deterministic human-readable summary."""
        fmap = self.feature_map
        lines = [
            f"qa search seed={self.seed} budget={self.budget}",
            f"  coverage: {fmap.coverage} feature cells, "
            f"corpus {len(self.corpus)} entries",
        ]
        min_conf = fmap.min_confidence()
        if min_conf is not None:
            lines.append(f"  lowest detector confidence: {min_conf:.3f} "
                         f"(threshold {ContentionDetector().threshold:g})")
        for failure in self.failures:
            tag = ("REPRODUCED on packet" if failure.reproduced
                   else "fluid-only (not reproduced on packet)")
            lines.append(f"  FAIL [{failure.oracle}] {tag}: "
                         f"{failure.scenario.label()}")
            for message in failure.messages:
                lines.append(f"         ! {message}")
        lines.append(f"{self.evaluated} scenarios searched, "
                     f"{len(self.failures)} failures "
                     f"({len(self.reproduced_failures)} reproduced)")
        return "\n".join(lines)


def _entry_weight(entry: SearchEntry, fmap: FeatureMap) -> float:
    """Power schedule: prefer lightly-used parents in rare cells with
    low detector confidence."""
    stats = fmap.cells.get(entry.cell_id)
    hits = stats["hits"] if stats else 1
    weight = 1.0 / (1.0 + entry.uses)
    weight *= 1.0 + 1.0 / hits
    if entry.confidence is not None:
        weight *= 1.0 + 1.0 / (0.25 + entry.confidence)
    return weight


def _projection(scenario: Scenario) -> str:
    """The scenario-side slice of a feature cell -- every component
    knowable *before* running (outcome buckets excluded).  Novelty
    steering ranks mutation candidates by how often their projection
    has already been visited."""
    return "|".join((scenario.qdisc, cca_mix_class(scenario),
                     scenario.cross_traffic, buffer_bucket(scenario),
                     jitter_bucket(scenario), medium_bucket(scenario)))


def _mutate_toward_novelty(parent: Scenario, rng: np.random.Generator,
                           visits: dict[str, int]) -> Scenario:
    """Draw a few mutation candidates and keep the least-visited one.

    Single-field mutations frequently land in the parent's own cell;
    ranking a handful of candidates by projection visit count is what
    turns blind mutation into coverage-guided mutation."""
    best = None
    best_count = None
    for _ in range(MUTATION_TRIES):
        candidate = mutate_scenario(parent, rng)
        if rng.random() < STACK_PROBABILITY:
            candidate = mutate_scenario(candidate, rng)
        count = visits.get(_projection(candidate), 0)
        if count == 0:
            return candidate
        if best_count is None or count < best_count:
            best, best_count = candidate, count
    return best


def _mut_rate_fine(scenario: Scenario,
                   rng: np.random.Generator) -> Scenario:
    factor = float(rng.uniform(0.85, 1.15))
    rate = min(192.0, max(1.0, scenario.rate_mbps * factor))
    return dataclasses.replace(scenario, rate_mbps=rate)


def _mut_rtt_fine(scenario: Scenario,
                  rng: np.random.Generator) -> Scenario:
    factor = float(rng.uniform(0.85, 1.15))
    rtt = min(200.0, max(2.0, scenario.rtt_ms * factor))
    return dataclasses.replace(scenario, rtt_ms=rtt)


def _mutate_toward_minimum(parent: Scenario,
                           rng: np.random.Generator) -> Scenario:
    """Perturb only detector-relevant fields (seed, jitter, link
    shape) of a low-confidence probe parent -- hill-descending the
    confidence surface instead of jumping to a new cell.  The
    fine-grained rate/RTT steps are what let the descent settle
    arbitrarily close to the threshold; the coarse operators alone
    would orbit it."""
    from .fuzz import _mut_buffer, _mut_duration, _mut_jitter, _mut_seed
    ops = (_mut_seed, _mut_rate_fine, _mut_rate_fine, _mut_rtt_fine,
           _mut_rtt_fine, _mut_buffer, _mut_duration, _mut_jitter)
    for index in rng.permutation(len(ops)):
        mutated = ops[int(index)](parent, rng)
        if mutated is not None:
            return mutated
    return _mut_seed(parent, rng)


def _pick_minimize_parent(corpus: list["SearchEntry"],
                          rng: np.random.Generator
                          ) -> "SearchEntry | None":
    """A probe-family parent, weighted hard toward low confidence
    (quadratic: the descent should cluster around the current best,
    not sample the whole probe corpus)."""
    candidates = [e for e in corpus if e.confidence is not None]
    if not candidates:
        return None
    weights = np.array([1.0 / (0.02 + e.confidence) ** 2
                        for e in candidates])
    return candidates[int(rng.choice(len(candidates),
                                     p=weights / weights.sum()))]


def run_search(budget: int, seed: int = 0, workers: int | None = 1,
               evaluate: Callable[[list[Scenario]], list] | None = None,
               guided: bool = True, backend: str = "fluid"
               ) -> SearchReport:
    """Run a ``budget``-scenario search campaign.

    Args:
        budget: candidate scenarios to evaluate (packet replays of
            fluid failures are extra and not counted).
        seed: campaign seed; the report is a pure function of
            ``(seed, budget, guided, backend)``.
        workers: evaluation parallelism (wall-clock only; the report
            is bit-identical for any worker count).
        evaluate: batch evaluator ``fn(scenarios) -> [(outcome,
            findings), ...]`` in submission order; defaults to a local
            :class:`ParallelExecutor`.  This is the cluster seam
            (:func:`repro.cluster.cluster_evaluator`): generation
            stays sequential and local either way, so any evaluator
            that returns what :func:`_run_search_scenario` returns
            preserves the determinism contract byte for byte.  It
            judges with the corpus-replay set, as a fluid search does.
        guided: steer by the corpus; ``False`` makes candidate *k*
            ``sample_scenario(k, seed)`` (no corpus, no rng draw).
        backend: the backend every candidate runs on.
    """
    rng = np.random.default_rng(derive_seed(seed, 0, "qa-search"))
    fresh = fresh_seed(seed)
    fmap = FeatureMap()
    report = SearchReport(seed=seed, budget=budget, feature_map=fmap)
    fresh_index = 0
    visits: dict[str, int] = {}
    with contextlib.ExitStack() as stack:
        if evaluate is None:
            preload_backend(backend)
            executor = stack.enter_context(
                ParallelExecutor(workers=workers))
            judge = functools.partial(executor.map, _run_search_task)
        else:
            def judge(tasks):
                return evaluate([scenario for scenario, _ in tasks])
        while report.evaluated < budget:
            batch_size = min(SEARCH_BATCH, budget - report.evaluated)
            batch: list[tuple[Scenario, int | None]] = []
            # Generation is strictly sequential: every rng draw
            # happens here, in submission order, with a fixed batch
            # size -- never in worker callbacks.
            for _ in range(batch_size):
                index = report.evaluated + len(batch)
                if not guided:
                    candidate = sample_scenario(index, seed)
                elif not report.corpus or rng.random() < FRESH_FRACTION:
                    candidate = sample_scenario(fresh_index, fresh)
                    fresh_index += 1
                    count = visits.get(_projection(candidate), 0)
                    for _ in range(FRESH_TRIES - 1):
                        if count == 0:
                            break
                        other = sample_scenario(fresh_index, fresh)
                        fresh_index += 1
                        other_count = visits.get(_projection(other), 0)
                        if other_count < count:
                            candidate, count = other, other_count
                else:
                    minimize_parent = None
                    if rng.random() < MINIMIZE_FRACTION:
                        minimize_parent = _pick_minimize_parent(
                            report.corpus, rng)
                    if minimize_parent is not None:
                        minimize_parent.uses += 1
                        candidate = _mutate_toward_minimum(
                            minimize_parent.scenario, rng)
                    else:
                        weights = np.array([_entry_weight(e, fmap)
                                            for e in report.corpus])
                        parent = report.corpus[int(rng.choice(
                            len(report.corpus),
                            p=weights / weights.sum()))]
                        parent.uses += 1
                        candidate = _mutate_toward_novelty(
                            parent.scenario, rng, visits)
                if candidate.backend != backend:
                    candidate = dataclasses.replace(candidate,
                                                    backend=backend)
                # Count the projection at generation time so one batch
                # doesn't pile onto the same "novel" projection.
                key = _projection(candidate)
                visits[key] = visits.get(key, 0) + 1
                batch.append((candidate,
                              index if backend == "packet" else None))
            results = judge(batch)
            # State updates are applied sequentially in submission
            # order (the evaluator preserves order).
            for (scenario, _), (outcome, findings) in zip(batch, results):
                report.evaluated += 1
                failed = bool(findings)
                cell, new_cell, new_min = fmap.observe(scenario, outcome,
                                                       failed=failed)
                if failed:
                    report.failures.append(
                        _packet_failure(scenario, findings, fmap))
                if new_cell or new_min:
                    report.corpus.append(SearchEntry(
                        scenario=scenario,
                        cell_id=cell.as_id(),
                        confidence=detector_confidence(outcome)))
    return report


def _packet_failure(scenario: Scenario,
                    findings: tuple[OracleFinding, ...],
                    fmap: FeatureMap) -> SearchFailure:
    """A failure as the packet backend sees it.

    A packet candidate's findings already are packet findings.  A
    fluid one is replayed on packet and counts as reproduced only if
    at least one of the same oracles fails on the packet run too; the
    packet outcome is folded into the feature map either way (it is a
    legitimate observation of a packet-backend cell).
    """
    messages = tuple(f.message for f in findings)
    if scenario.backend == "packet":
        return SearchFailure(
            scenario=scenario, oracle=findings[0].oracle,
            messages=messages,
            packet_messages=tuple(str(f) for f in findings),
            reproduced=True)
    packet_scenario = dataclasses.replace(scenario, backend="packet")
    packet_messages: list[str] = []
    try:
        packet_outcome = run_scenario(packet_scenario,
                                      check_invariants=True)
    except Exception as exc:  # a crash is its own reproduction
        packet_messages.append(f"packet replay crashed: {exc!r}")
        return SearchFailure(
            scenario=scenario,
            oracle=findings[0].oracle,
            messages=messages,
            packet_messages=tuple(packet_messages),
            reproduced=True)
    failed_names = []
    for name in dict.fromkeys(f.oracle for f in findings):
        oracle = _ORACLES_BY_NAME[name]
        if not oracle.applies(packet_scenario):
            continue
        problems = oracle.check(packet_scenario, packet_outcome,
                                run_scenario)
        if problems:
            failed_names.append(name)
            packet_messages.extend(f"[{name}] {m}" for m in problems)
    fmap.observe(packet_scenario, packet_outcome,
                 failed=bool(failed_names))
    return SearchFailure(
        scenario=scenario,
        oracle=(failed_names[0] if failed_names else findings[0].oracle),
        messages=messages,
        packet_messages=tuple(packet_messages),
        reproduced=bool(failed_names))


# -- the robustness-envelope artifact -------------------------------------

ENVELOPE_SCHEMA = 1


def build_envelope(report: SearchReport) -> dict:
    """The robustness-envelope artifact of the detector.

    A cell *passes* when no failure was observed in it; the artifact
    carries the full confidence surface, so two envelopes from
    different PRs diff cell by cell (:func:`diff_envelopes`).
    """
    surface = report.feature_map.to_dict()
    detector = ContentionDetector().fingerprint_config()
    payload = {
        "schema": ENVELOPE_SCHEMA,
        "kind": "qa-envelope",
        "suite": SUITE_VERSION,
        "seed": report.seed,
        "budget": report.budget,
        "detector": detector,
        # The retired per-qdisc matrix as literals, so that no
        # envelope fingerprint moves.
        "detectors": {"default": detector},
        "qdisc_thresholds": {},
        "coverage": surface["coverage"],
        "min_confidence": surface["min_confidence"],
        "cells": {
            cell_id: {**stats, "pass": stats["failures"] == 0}
            for cell_id, stats in surface["cells"].items()
        },
        "failures": [f.to_dict() for f in report.failures],
    }
    payload["fingerprint"] = fingerprint(payload, kind="qa-envelope")
    return payload


def envelope_cache_key(budget: int, seed: int) -> str:
    """Store key for a cached envelope (covers everything the artifact
    is a function of, including any injected fault)."""
    config = {
        "kind": "qa-envelope-job",
        "suite": SUITE_VERSION,
        "seed": seed,
        "budget": budget,
        # Retired key as a literal, so that no cached envelope's key
        # moves.
        "threshold": 2.0,
        "detector": ContentionDetector().fingerprint_config(),
        "fault": os.environ.get(FAULT_ENV, ""),
    }
    return fingerprint(config, kind="qa-envelope-job")


def run_envelope(budget: int, seed: int = 0,
                 store: ArtifactStore | None = None,
                 workers: int | None = 1) -> tuple[dict, bool]:
    """Produce (or fetch) the robustness-envelope artifact.

    Returns:
        (artifact, cached): the envelope dict and whether it came out
        of the store instead of a fresh search.
    """
    key = envelope_cache_key(budget, seed)
    if store is not None:
        hit = store.get(key)
        if hit is not None:
            return hit, True
    report = run_search(budget, seed=seed, workers=workers)
    artifact = build_envelope(report)
    if store is not None:
        store.put(key, artifact, kind="qa-envelope",
                  label=f"envelope seed={seed} budget={budget}")
    return artifact, False


def diff_envelopes(baseline: dict, current: dict) -> dict:
    """Cell-level diff of two envelope artifacts.

    Returns a dict with ``regressions`` (cells that passed in the
    baseline and fail now), ``fixed`` (the reverse), ``new_cells`` and
    ``lost_cells`` (coverage drift).  Only ``regressions`` should gate
    CI; coverage drift is informational.
    """
    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})
    regressions = sorted(
        cell for cell, stats in cur_cells.items()
        if not stats["pass"] and base_cells.get(cell, {}).get("pass", True)
        and cell in base_cells)
    fixed = sorted(
        cell for cell, stats in cur_cells.items()
        if stats["pass"] and cell in base_cells
        and not base_cells[cell]["pass"])
    return {
        "regressions": regressions,
        "fixed": fixed,
        "new_cells": sorted(set(cur_cells) - set(base_cells)),
        "lost_cells": sorted(set(base_cells) - set(cur_cells)),
    }


# -- corpus promotion ------------------------------------------------------

def promote_failure(failure: SearchFailure, origin: str, created: str,
                    directory=DEFAULT_CORPUS_DIR) -> tuple[CorpusCase, int]:
    """Shrink one failure and commit it to the corpus.

    Reproduced failures are shrunk on the packet backend (the corpus
    replays there); fluid-only ones are shrunk as found.  ``origin``
    says who found it (``"search seed=3"``) and is recorded on the
    case.  Returns the saved case and the number of shrink runs spent.
    """
    oracle = _ORACLES_BY_NAME[failure.oracle]
    scenario = (dataclasses.replace(failure.scenario, backend="packet")
                if failure.reproduced else failure.scenario)
    result = shrink(scenario, oracle, run_scenario)
    if result.steps:
        origin += f" (shrunk, {result.runs} runs)"
    case = case_for(result.scenario, oracle=failure.oracle,
                    origin=origin, created=created)
    save_case(case, directory)
    return case, result.runs

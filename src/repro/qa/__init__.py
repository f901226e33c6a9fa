"""Simulator quality assurance: fuzzing, oracles, and the corpus.

The paper's claims are only as trustworthy as the event-driven
simulator underneath, so this package validates the engine the way
Contracts (Agarwal et al.) argues CCAs themselves should be validated:
against explicit properties rather than point scenarios.

* :mod:`repro.qa.scenario` -- a serializable :class:`Scenario` model
  spanning every qdisc, CCA, and traffic mix in the repo, plus
  :func:`run_scenario`, which executes one scenario under full trace
  capture and invariant checking.
* :mod:`repro.qa.oracles` -- the oracle suite: conservation/queue
  invariants, metamorphic properties (seed determinism, rate
  monotonicity, elasticity rescaling invariance), and paper-level
  ground-truth oracles (elastic cross traffic must read elastic).
* :mod:`repro.qa.fuzz` -- the seeded scenario sampler and the
  mutation operators.
* :mod:`repro.qa.features` -- the scenario feature map coverage-
  guided search steers by.
* :mod:`repro.qa.search` -- the one QA loop, :func:`run_search`:
  coverage-guided adversarial search, or with ``guided=False`` plain
  random fuzzing (``qa fuzz`` on packet, E13's control arm on fluid);
  plus the per-detector robustness-envelope artifact.
* :mod:`repro.qa.shrink` -- delta-debugging minimizer for failing
  scenarios.
* :mod:`repro.qa.corpus` -- the committed regression corpus under
  ``tests/corpus/`` that pytest replays on every run.

CLI entry points: ``repro qa fuzz | search | envelope | shrink |
corpus``.
"""

from .corpus import (CorpusCase, load_case, load_corpus, replay_case,
                     save_case)
from .features import FeatureCell, FeatureMap, feature_cell
from .fuzz import MUTATORS, mutate_scenario, sample_scenario
from .oracles import (ORACLES, FAULT_ENV, Oracle, OracleFinding,
                      oracles_for_index, run_oracles)
from .scenario import (FLOW_CCAS, QDISC_NAMES, FlowSpec, Scenario,
                       ScenarioOutcome, build_qdisc, run_scenario,
                       scenario_fingerprint)
from .search import (SearchFailure, SearchReport, build_envelope,
                     diff_envelopes, promote_failure, run_envelope,
                     run_search)
from .shrink import ShrinkResult, shrink

__all__ = [
    "Scenario", "FlowSpec", "ScenarioOutcome", "QDISC_NAMES", "FLOW_CCAS",
    "build_qdisc", "run_scenario", "scenario_fingerprint",
    "Oracle", "OracleFinding", "ORACLES", "FAULT_ENV", "run_oracles",
    "oracles_for_index",
    "sample_scenario", "MUTATORS", "mutate_scenario",
    "FeatureCell", "FeatureMap", "feature_cell",
    "SearchReport", "SearchFailure", "run_search", "run_envelope",
    "build_envelope", "diff_envelopes", "promote_failure",
    "shrink", "ShrinkResult",
    "CorpusCase", "save_case", "load_case", "load_corpus", "replay_case",
]

"""The committed regression corpus.

Every scenario the fuzzer ever caught and shrank lives on as a JSON
file under ``tests/corpus/`` that pytest replays forever after.  A
corpus case records the minimized scenario, which oracle it violated,
and where it came from; replay re-runs the scenario through the full
corpus-replay oracle suite (invariants, delivery bound, ground-truth
probe oracles) so a fixed bug stays fixed.

File format (schema 1)::

    {
      "schema": 1,
      "name": "<scenario fingerprint prefix>",
      "oracle": "<oracle name that originally failed>",
      "origin": "fuzz seed=0 (shrunk, 12 runs)",
      "created": "2026-08-06",
      "scenario": { ... Scenario.to_dict() ... }
    }

Files are written atomically with sorted keys so corpus diffs stay
reviewable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .oracles import OracleFinding, run_oracles
from .scenario import (Scenario, ScenarioOutcome, run_scenario,
                       scenario_fingerprint)

SCHEMA = 1

#: Default location of the committed corpus, relative to the repo root.
DEFAULT_CORPUS_DIR = Path("tests") / "corpus"


@dataclass(frozen=True)
class CorpusCase:
    """One committed regression case."""

    name: str
    oracle: str
    origin: str
    created: str
    scenario: Scenario

    @property
    def filename(self) -> str:
        return f"{self.name}.json"


def case_for(scenario: Scenario, oracle: str, origin: str,
             created: str) -> CorpusCase:
    """Build a corpus case named after the scenario fingerprint."""
    return CorpusCase(name=scenario_fingerprint(scenario)[:12],
                      oracle=oracle, origin=origin, created=created,
                      scenario=scenario)


def save_case(case: CorpusCase, directory: Path | str) -> Path:
    """Write ``case`` into ``directory`` (atomic, sorted keys)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": SCHEMA,
        "name": case.name,
        "oracle": case.oracle,
        "origin": case.origin,
        "created": case.created,
        "scenario": case.scenario.to_dict(),
    }
    target = directory / case.filename
    tmp = target.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, target)
    return target


def load_case(path: Path | str) -> CorpusCase:
    """Load one corpus case, validating the schema."""
    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"{path}: unsupported corpus schema {schema!r}")
    return CorpusCase(
        name=payload["name"],
        oracle=payload["oracle"],
        origin=payload.get("origin", ""),
        created=payload.get("created", ""),
        scenario=Scenario.from_dict(payload["scenario"]),
    )


def load_corpus(directory: Path | str = DEFAULT_CORPUS_DIR
                ) -> list[CorpusCase]:
    """Load every case in ``directory``, sorted by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [load_case(path)
            for path in sorted(directory.glob("*.json"))]


def replay_case(case: CorpusCase
                ) -> tuple[ScenarioOutcome, list[OracleFinding]]:
    """Re-run one corpus case through the corpus-replay oracle suite.

    Returns the outcome and any findings; an empty findings list means
    the regression stays fixed.
    """
    outcome = run_scenario(case.scenario)
    findings = run_oracles(case.scenario, outcome, run_scenario,
                           index=None)
    return outcome, findings

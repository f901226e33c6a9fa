"""The QA loop: determinism across worker counts on each of its arms,
the robustness-envelope artifact and its store cache, corpus promotion
of search-found failures, and (behind ``-m fuzz``) the guided-vs-random
acceptance comparison."""

import json

import pytest

from repro.qa.corpus import load_corpus, replay_case
from repro.qa.oracles import FAULT_ENV
from repro.qa.shrink import MAX_RUNS
from repro.qa.search import (build_envelope, diff_envelopes,
                             envelope_cache_key, fresh_seed,
                             promote_failure, run_envelope, run_search)
from repro.store.artifacts import ArtifactStore

SMOKE_BUDGET = 24


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# -- determinism -----------------------------------------------------------

#: The loop's three callers: ``qa search``, E13's random control and
#: ``qa fuzz``.  Index 0 passes every period gate, so on the packet
#: arm ``seed-determinism`` and the other re-running oracles judge it
#: inside a pool worker too.
ARMS = {
    "guided-fluid": {"budget": SMOKE_BUDGET, "seed": 3},
    "unguided-fluid": {"budget": SMOKE_BUDGET, "seed": fresh_seed(3),
                       "guided": False},
    "unguided-packet": {"budget": 2, "seed": 0, "guided": False,
                        "backend": "packet"},
}


@pytest.mark.parametrize("arm", ARMS)
def test_search_is_worker_count_invariant(arm):
    # The regression-locking property: same arguments must give a
    # byte-identical report and corpus no matter the parallelism.
    serial = run_search(workers=1, **ARMS[arm])
    parallel = run_search(workers=2, **ARMS[arm])
    assert _dumps(serial.to_dict()) == _dumps(parallel.to_dict())
    assert serial.render() == parallel.render()
    assert [e.cell_id for e in serial.corpus] \
        == [e.cell_id for e in parallel.corpus]


def test_search_report_shape():
    report = run_search(SMOKE_BUDGET, seed=3, workers=2)
    assert report.evaluated == SMOKE_BUDGET
    assert 0 < report.feature_map.coverage <= 2 * SMOKE_BUDGET
    assert report.corpus  # something was admitted
    payload = report.to_dict()
    assert payload["seed"] == 3 and payload["budget"] == SMOKE_BUDGET
    assert payload["map"]["coverage"] == report.feature_map.coverage
    assert len(payload["corpus"]) == len(report.corpus)


# -- the envelope artifact -------------------------------------------------

def test_envelope_is_store_cached_and_deterministic(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    cold, cold_cached = run_envelope(SMOKE_BUDGET, seed=3, store=store,
                                     workers=2)
    assert not cold_cached
    warm, warm_cached = run_envelope(SMOKE_BUDGET, seed=3, store=store,
                                     workers=2)
    assert warm_cached
    assert _dumps(cold) == _dumps(warm)
    assert cold["kind"] == "qa-envelope"
    assert cold["fingerprint"]
    assert cold["coverage"] == len(cold["cells"])
    assert all("pass" in stats for stats in cold["cells"].values())


def test_envelope_cache_key_covers_the_inputs(monkeypatch):
    base = envelope_cache_key(50, 0)
    assert envelope_cache_key(50, 0) == base
    assert envelope_cache_key(51, 0) != base
    assert envelope_cache_key(50, 1) != base
    monkeypatch.setenv(FAULT_ENV, "any")
    assert envelope_cache_key(50, 0) != base


#: What cached envelopes are stored under, and what a budget-8 seed-0
#: search reports: the search runs on fluid, so only a ``CODE_VERSION``
#: bump may move them.
PINNED_ENVELOPE_KEYS = {
    50: "1e5502a59ed030d8bfa1ec2d2db4f1b7bb5f0cc3934913c7d1f8972127536dbd",
    150: "30d99ca38900b2b21cf5c2e0e408013a003c84524738a5ba4ebe5680de987d69",
}
PINNED_ENVELOPE_FINGERPRINT = \
    "3368ee73f80f6015ee4bb0d7c2d901faa8d04f354bf0f07c18cd0bad78c6c67c"
PINNED_REPORT_SHA256 = \
    "4cf8000359c6f76c6e40d8da433b7008d74bef75e2d411f0e206db97dd2885af"


class _KeyRecorder:
    """A store that answers every lookup, recording the key asked."""

    def __init__(self):
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return {}


def test_envelope_keys_and_fingerprint_are_pinned(monkeypatch):
    import hashlib

    monkeypatch.delenv(FAULT_ENV, raising=False)
    # Through ``run_envelope``, the one caller of the key, so the pin
    # does not depend on the key function's signature.
    for budget, key in PINNED_ENVELOPE_KEYS.items():
        recorder = _KeyRecorder()
        assert run_envelope(budget, seed=0, store=recorder) == ({}, True)
        assert recorder.keys == [key]
    report = run_search(8, seed=0)
    assert build_envelope(report)["fingerprint"] \
        == PINNED_ENVELOPE_FINGERPRINT
    assert hashlib.sha256(_dumps(report.to_dict()).encode()).hexdigest() \
        == PINNED_REPORT_SHA256


def test_envelope_matches_its_report():
    report = run_search(SMOKE_BUDGET, seed=3, workers=2)
    artifact = build_envelope(report)
    assert artifact["coverage"] == report.feature_map.coverage
    assert artifact["min_confidence"] \
        == report.feature_map.min_confidence()
    failing = [cid for cid, s in artifact["cells"].items()
               if not s["pass"]]
    assert len(artifact["failures"]) == len(report.failures)
    for cell_id in failing:
        assert artifact["cells"][cell_id]["failures"] > 0


def test_diff_envelopes():
    baseline = {"cells": {
        "a": {"pass": True}, "b": {"pass": True},
        "c": {"pass": False}, "gone": {"pass": True}}}
    current = {"cells": {
        "a": {"pass": True}, "b": {"pass": False},
        "c": {"pass": True}, "fresh": {"pass": False}}}
    delta = diff_envelopes(baseline, current)
    assert delta["regressions"] == ["b"]
    assert delta["fixed"] == ["c"]
    assert delta["new_cells"] == ["fresh"]
    assert delta["lost_cells"] == ["gone"]


# -- failure promotion (search -> shrink -> corpus) ------------------------

def test_search_failures_shrink_into_the_corpus(monkeypatch, tmp_path):
    monkeypatch.setenv(FAULT_ENV, "cross:cbr")
    report = run_search(48, seed=3, workers=2)
    assert report.failures, "fault injection found nothing"
    assert all(f.oracle == "injected-fault" for f in report.failures)
    reproduced = report.reproduced_failures
    assert reproduced, "injected fault must reproduce on packet"
    failure = sorted(reproduced,
                     key=lambda f: f.scenario.duration)[0]
    case, runs = promote_failure(failure, "search seed=3",
                                 created="2026-08-09",
                                 directory=tmp_path)
    assert runs <= MAX_RUNS
    assert case.oracle == "injected-fault"
    assert case.origin.startswith("search seed=3")
    saved = load_corpus(tmp_path)
    assert [c.name for c in saved] == [case.name]
    # The shrunk case still triggers the same oracle on replay.
    assert saved[0].scenario.cross_traffic == "cbr"
    _, findings = replay_case(saved[0])
    assert any(f.oracle == "injected-fault" for f in findings)


def test_search_with_fault_is_still_worker_invariant(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "cross:cbr")
    serial = run_search(16, seed=3, workers=1)
    parallel = run_search(16, seed=3, workers=2)
    assert _dumps(serial.to_dict()) == _dumps(parallel.to_dict())


# -- CLI and serve entry points --------------------------------------------

def test_cli_search_smoke(capsys):
    from repro.cli import main
    assert main(["qa", "search", "--budget", "8", "--seed", "0",
                 "--workers", "2", "--no-shrink"]) == 0
    out = capsys.readouterr().out
    assert "qa search seed=0 budget=8" in out
    assert "8 scenarios searched" in out


def test_cli_envelope_out_check_and_json(tmp_path, capsys,
                                         monkeypatch):
    from repro.cli import main
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
    out_file = tmp_path / "envelope.json"
    assert main(["qa", "envelope", "--budget", "8", "--seed", "0",
                 "--workers", "2", "--out", str(out_file)]) == 0
    capsys.readouterr()
    artifact = json.loads(out_file.read_text())
    assert artifact["kind"] == "qa-envelope"
    # Second run is a cache hit and the self-check reports no drift.
    assert main(["qa", "envelope", "--budget", "8", "--seed", "0",
                 "--check", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "0 regressions" in out
    assert artifact["fingerprint"] in out


def test_serve_executors_roundtrip(tmp_path):
    from repro.serve.jobs import execute_qa_envelope, execute_qa_search
    store = ArtifactStore(tmp_path / "store")
    summary, payload = execute_qa_search(store, 2, budget=8, seed=0)
    assert summary["coverage"] > 0
    assert payload["map"]["coverage"] == summary["coverage"]
    cold, _ = execute_qa_envelope(store, 2, budget=8, seed=0)
    assert not cold["cached"]
    warm, artifact = execute_qa_envelope(store, 2, budget=8, seed=0)
    assert warm["cached"]
    assert warm["fingerprint"] == cold["fingerprint"]
    assert artifact["fingerprint"] == warm["fingerprint"]


# -- acceptance: guided vs random (nightly / -m fuzz) ----------------------

@pytest.mark.fuzz
def test_guided_search_beats_random_fuzzing_at_equal_budget():
    """Guided covers >= 1.3x the cells of random, minima as low.

    At budget 300, seed 0 the guided arm reads 260 cells and the random
    arm 193 (1.35x); it read 272 against 174 (1.56x) when the search
    was added (cd8e086).  Bisected with this test, two commits moved
    it: f7c0aa4 ("Add repro.cluster ...") gave the feature cell a
    tenth, outcome-derived field (queue residency), which splits
    random's cells (random 174 -> 193, guided unchanged: 1.41x), and
    17a6b6b ("Add shared-medium (CSMA/CA) bottlenecks ...") added the
    medium axis and its mutation operator (guided 272 -> 260 cells,
    its minimum 0.012 -> 0.0013: 1.35x).  Restoring 1.5x would
    retune the search and move the envelope (ROADMAP item 5).
    """
    budget, seed = 300, 0
    report = run_search(budget, seed=seed, workers=None)
    control = run_search(budget, fresh_seed(seed), workers=None,
                         guided=False)
    guided, baseline = report.feature_map, control.feature_map
    assert guided.coverage >= 1.3 * baseline.coverage, (
        f"guided={guided.coverage} random={baseline.coverage}")
    gmin, rmin = guided.min_confidence(), baseline.min_confidence()
    assert gmin is not None and rmin is not None
    assert gmin <= rmin, f"guided min {gmin} vs random min {rmin}"


@pytest.mark.fuzz
def test_search_determinism_at_full_scale():
    serial = run_search(64, seed=3, workers=1)
    parallel = run_search(64, seed=3, workers=4)
    assert _dumps(serial.to_dict()) == _dumps(parallel.to_dict())
    assert serial.render() == parallel.render()

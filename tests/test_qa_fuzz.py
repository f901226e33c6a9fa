"""The scenario sampler, ``qa fuzz`` -- the search unguided, on
packet -- end to end, and (behind ``-m fuzz``) a full-budget
campaign."""

import pytest

from repro.qa import oracles
from repro.qa.fuzz import sample_scenario
from repro.qa.oracles import FAULT_ENV
from repro.qa.scenario import QDISC_NAMES, Scenario
from repro.qa.search import run_search

SMOKE_BUDGET = 5


# -- sampling -------------------------------------------------------------

def test_sampling_is_deterministic():
    assert sample_scenario(5, 0) == sample_scenario(5, 0)
    assert sample_scenario(5, 0) != sample_scenario(5, 1)
    assert sample_scenario(5, 0) != sample_scenario(6, 0)


def test_sampled_scenarios_are_valid():
    for index in range(40):
        scenario = sample_scenario(index, 0)
        assert isinstance(scenario, Scenario)  # __post_init__ validated


def test_sampling_covers_the_space():
    scenarios = [sample_scenario(i, 0) for i in range(150)]
    qdiscs = {s.qdisc for s in scenarios}
    ccas = {f.cca for s in scenarios for f in s.flows}
    families = {s.family for s in scenarios}
    assert qdiscs == set(QDISC_NAMES)
    assert len(ccas) >= 8
    assert families == {"flows", "probe"}


# -- campaign -------------------------------------------------------------

def _fuzz(budget: int, seed: int, workers: int | None = 1):
    """What ``repro qa fuzz`` runs."""
    return run_search(budget, seed=seed, workers=workers, guided=False,
                      backend="packet")


def test_smoke_campaign_passes_and_is_deterministic():
    first = _fuzz(SMOKE_BUDGET, 0)
    assert first.evaluated == SMOKE_BUDGET
    assert first.failures == []
    second = _fuzz(SMOKE_BUDGET, 0, workers=2)
    assert first.to_dict() == second.to_dict()
    assert first.render() == second.render()


def test_fuzz_stream_and_gating_are_pinned(monkeypatch):
    # `qa fuzz --seed s` judges sample_scenario(k, s) in order, each by
    # the period-gated suite of its index k (never the corpus-replay
    # set, index None), and a packet finding needs no replay.
    monkeypatch.setenv(FAULT_ENV, "any")
    gate, seen = oracles.oracles_for_index, []

    def spy(scenario, index):
        seen.append(index)
        return gate(scenario, index)

    monkeypatch.setattr(oracles, "oracles_for_index", spy)
    report = _fuzz(3, 0)
    assert [f.scenario for f in report.failures] \
        == [sample_scenario(k, 0) for k in range(3)]
    assert all(f.oracle == "injected-fault" and f.reproduced
               for f in report.failures)
    assert seen == [0, 1, 2]


# -- CLI ------------------------------------------------------------------

def test_cli_fuzz_smoke(capsys):
    from repro.cli import main
    assert main(["qa", "fuzz", "--budget", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "2 scenarios searched, 0 failures" in out


def test_cli_fuzz_shrinks_failures_into_corpus(monkeypatch, tmp_path,
                                               capsys):
    from repro.cli import main
    monkeypatch.setenv(FAULT_ENV, "qdisc:policer")
    corpus_dir = tmp_path / "failures"
    # seed 0 index 1 is a policer scenario: one failure to shrink.
    assert main(["qa", "fuzz", "--budget", "2", "--seed", "0",
                 "--corpus-out", str(corpus_dir)]) == 1
    cases = list(corpus_dir.glob("*.json"))
    assert len(cases) == 1
    from repro.qa.corpus import load_case
    case = load_case(cases[0])
    assert case.scenario.qdisc == "policer"
    assert len(case.scenario.flows) == 1
    assert case.origin.startswith("fuzz seed=0")


def test_cli_corpus_replay(capsys):
    from repro.cli import main
    assert main(["qa", "corpus", "--dir", "tests/corpus",
                 "--replay"]) == 0
    out = capsys.readouterr().out
    assert "corpus cases pass" in out


# -- full campaign (nightly / -m fuzz) ------------------------------------

@pytest.mark.fuzz
def test_full_budget_campaign_clean():
    report = _fuzz(200, 0, workers=None)
    assert report.failures == [], report.render()

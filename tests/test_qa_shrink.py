"""Shrinker: minimizes failing scenarios while preserving the failure."""

import pytest

from repro.qa.oracles import FAULT_ENV, InjectedFaultOracle, Oracle
from repro.qa.scenario import FlowSpec, Scenario, run_scenario
from repro.qa.shrink import MAX_RUNS, ShrinkResult, shrink


def _big_scenario() -> Scenario:
    return Scenario(
        family="flows", rate_mbps=8.0, rtt_ms=40.0, qdisc="red",
        duration=4.0, seed=3, buffer_multiplier=2.0,
        cross_traffic="poisson",
        flows=(FlowSpec(cca="cubic"), FlowSpec(cca="cbr", user_id="b"),
               FlowSpec(cca="bbr", start=0.5)))


def test_shrinks_injected_fault_to_minimal_repro(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "cca:cbr")
    result = shrink(_big_scenario(), InjectedFaultOracle(), run_scenario)
    final = result.scenario
    # The trigger must survive; everything else should be stripped.
    assert any(f.cca == "cbr" for f in final.flows)
    assert len(final.flows) <= 2
    assert final.duration <= 10.0
    assert final.cross_traffic == "none"
    assert final.qdisc == "droptail"
    assert final.buffer_multiplier == 1.0
    assert result.steps and result.runs >= len(result.steps)


def test_shrink_preserves_qdisc_trigger(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "qdisc:red")
    result = shrink(_big_scenario(), InjectedFaultOracle(), run_scenario)
    assert result.scenario.qdisc == "red"
    assert len(result.scenario.flows) == 1


def test_shrink_respects_run_budget(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "any")
    result = shrink(_big_scenario(), InjectedFaultOracle(), run_scenario)
    assert result.runs <= MAX_RUNS


def test_shrink_minimal_scenario_is_fixed_point(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "any")
    minimal = Scenario(family="flows", rate_mbps=4.0, rtt_ms=20.0,
                       qdisc="droptail", duration=2.0, seed=0,
                       flows=(FlowSpec(cca="reno"),))
    result = shrink(minimal, InjectedFaultOracle(), run_scenario)
    assert result.scenario == minimal
    assert result.steps == []


def test_shrink_rejects_candidates_that_stop_failing():
    """An oracle failing only on multi-flow scenarios keeps >= 2 flows."""

    class NeedsTwoFlows(Oracle):
        name = "needs-two-flows"

        def check(self, scenario, outcome, runner):
            return ["fails"] if len(scenario.flows) >= 2 else []

    scenario = Scenario(
        family="flows", rate_mbps=8.0, rtt_ms=20.0, qdisc="droptail",
        duration=2.0, seed=1,
        flows=(FlowSpec(cca="reno"), FlowSpec(cca="cubic"),
               FlowSpec(cca="bbr")))
    result = shrink(scenario, NeedsTwoFlows(), run_scenario)
    assert len(result.scenario.flows) == 2


def test_shrink_result_type(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "any")
    result = shrink(_big_scenario(), InjectedFaultOracle(), run_scenario)
    assert isinstance(result, ShrinkResult)

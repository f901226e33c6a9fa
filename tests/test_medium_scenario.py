"""The ``medium`` scenario axis end to end: fingerprint back-compat,
both backends, and the QA-harness integration (features, mutators,
oracles, shrinker, campaign specs) around it."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.qa.scenario import FlowSpec, Scenario, run_scenario

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _probe(backend: str, medium: str = "queue",
           cross: str = "none") -> Scenario:
    return Scenario(family="probe", rate_mbps=20.0, rtt_ms=20.0,
                    qdisc="droptail", duration=20.0, seed=1,
                    cross_traffic=cross, backend=backend,
                    medium=medium)


# -- fingerprint back-compat (satellite) -----------------------------------

def test_fingerprints_are_backward_compatible():
    # medium="queue" must serialize exactly like a pre-medium scenario,
    # or every corpus case and stored result is orphaned.
    scenario = _probe("packet")
    assert "medium" not in scenario.to_dict()
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    shared = _probe("packet", medium="csma-4")
    assert shared.to_dict()["medium"] == "csma-4"
    assert Scenario.from_dict(shared.to_dict()) == shared
    assert "medium=csma-4" in shared.label()
    assert "medium" not in scenario.label()


def test_scenario_rejects_bad_medium():
    for bad in ("csma-1", "csma-99", "wifi", "csma-4-hi"):
        with pytest.raises(ConfigError):
            _probe("packet", medium=bad)


# -- both backends ---------------------------------------------------------

@pytest.mark.parametrize("backend", ("packet", "fluid"))
def test_medium_changes_the_outcome_deterministically(backend):
    base = run_scenario(_probe(backend, cross="reno"))
    shared = run_scenario(_probe(backend, medium="csma-2", cross="reno"))
    again = run_scenario(_probe(backend, medium="csma-2", cross="reno"))
    assert shared.fingerprint() == again.fingerprint()
    assert shared.fingerprint() != base.fingerprint()
    # The medium changes the mechanism (MAC fairness, not queue
    # sharing), not this calibrated elastic cell's verdict.
    assert base.probe["contending"] and shared.probe["contending"]


@pytest.mark.parametrize("backend", ("packet", "fluid"))
def test_priority_mix_runs_on_flows_family(backend):
    scenario = Scenario(family="flows", rate_mbps=8.0, rtt_ms=20.0,
                        qdisc="droptail", duration=4.0, seed=1,
                        flows=(FlowSpec(cca="reno", rate_frac=0.5,
                                        user_id="a"),
                               FlowSpec(cca="bbr", rate_frac=0.5,
                                        user_id="b")),
                        backend=backend, medium="csma-4-prio")
    outcome = run_scenario(scenario)
    assert sum(outcome.delivered.values()) > 0


# -- QA-harness integration ------------------------------------------------

def test_suite_version_bumped_for_medium_axis():
    from repro.qa.oracles import SUITE_VERSION
    assert SUITE_VERSION >= 4


def test_medium_mutator_is_registered_and_moves_the_axis():
    import numpy as np
    from repro.qa.fuzz import _MUTATION_MEDIUMS, _mut_medium, MUTATORS
    assert _mut_medium in MUTATORS
    rng = np.random.default_rng(0)
    scenario = _probe("packet")
    for _ in range(20):
        mutated = _mut_medium(scenario, rng)
        assert mutated.medium != scenario.medium
        assert mutated.medium in _MUTATION_MEDIUMS
        scenario = mutated


def test_feature_cell_has_a_medium_axis():
    from repro.qa.features import feature_cell, medium_bucket
    assert medium_bucket(_probe("packet")) == "queue"
    assert medium_bucket(_probe("packet", medium="csma-2")) == "csma-2"
    assert medium_bucket(_probe("packet", medium="csma-3")) == "csma-4"
    assert medium_bucket(_probe("packet", medium="csma-16")) \
        == "csma-many"
    assert medium_bucket(_probe("packet", medium="csma-8-prio")) \
        == "csma-8-prio"
    outcome = run_scenario(_probe("fluid", medium="csma-2"))
    cell = feature_cell(_probe("fluid", medium="csma-2"), outcome)
    assert cell.medium == "csma-2"
    # New axes append at the end so positional consumers of older ids
    # keep working (the FeatureCell back-compat contract).
    assert cell.as_id().endswith("|csma-2")


def test_search_projection_separates_mediums():
    from repro.qa.search import _projection
    assert _projection(_probe("packet")) \
        != _projection(_probe("packet", medium="csma-2"))


def test_shrinker_offers_medium_removal():
    from repro.qa.shrink import _candidates
    shared = _probe("packet", medium="csma-4")
    candidates = dict(_candidates(shared))
    assert candidates["replace shared medium with queue"].medium \
        == "queue"
    assert "replace shared medium with queue" \
        not in dict(_candidates(_probe("packet")))


def test_elastic_oracle_gates_to_the_medium_envelope():
    from repro.qa.oracles import ElasticCrossOracle
    oracle = ElasticCrossOracle()
    assert oracle.applies(_probe("packet", medium="csma-2",
                                 cross="reno"))
    # Priority mixes starve the probe and are deliberately unjudged.
    assert not oracle.applies(_probe("packet", medium="csma-4-prio",
                                     cross="reno"))
    # Outside the calibrated medium envelope: unjudged.
    outside = dataclasses.replace(_probe("packet", medium="csma-2",
                                         cross="reno"), rate_mbps=48.0)
    assert not oracle.applies(outside)


def test_inelastic_oracle_skips_idle_csma_paths():
    # E16: MAC overhead makes an *idle* CSMA medium read contending,
    # so the idle-path-reads-clean oracle only judges queue media.
    from repro.qa.oracles import InelasticCrossOracle
    oracle = InelasticCrossOracle()
    assert oracle.applies(_probe("packet"))
    assert not oracle.applies(_probe("packet", medium="csma-2"))
    cbr = dataclasses.replace(_probe("packet", medium="csma-2",
                                     cross="cbr"), rate_mbps=48.0)
    assert oracle.applies(cbr)


def test_agreement_oracles_split_by_medium():
    from repro.qa.oracles import (FluidPacketAgreementOracle,
                                  MediumAirtimeAgreementOracle)
    queue = _probe("packet", cross="reno")
    shared = _probe("packet", medium="csma-2", cross="reno")
    assert FluidPacketAgreementOracle().applies(queue)
    assert not FluidPacketAgreementOracle().applies(shared)
    medium_oracle = MediumAirtimeAgreementOracle()
    assert medium_oracle.applies(shared)
    assert not medium_oracle.applies(queue)
    assert not medium_oracle.applies(
        dataclasses.replace(shared, backend="fluid"))
    assert not medium_oracle.applies(
        dataclasses.replace(shared, timing_jitter=0.2))


def test_medium_airtime_agreement_holds_on_calibrated_cell():
    # The satellite acceptance spot-check: fluid and packet divide
    # airtime the same way on an elastic contention cell.
    from repro.qa.oracles import MediumAirtimeAgreementOracle
    scenario = _probe("packet", medium="csma-2", cross="reno")
    outcome = run_scenario(scenario)
    problems = MediumAirtimeAgreementOracle().check(
        scenario, outcome, run_scenario)
    assert problems == []


# -- campaign specs ---------------------------------------------------------

def test_path_spec_fingerprints_are_backward_compatible():
    from dataclasses import fields
    from repro.core.campaign import PathSpec, _spec_config
    from repro.store.fingerprint import fingerprint
    spec = PathSpec(rate_mbps=20.0, rtt_ms=20.0, qdisc="droptail",
                    cross_traffic="reno", seed=3)
    legacy = {f.name: getattr(spec, f.name) for f in fields(spec)
              if f.name != "medium"}
    assert fingerprint(_spec_config(spec), kind="path") \
        == fingerprint(legacy, kind="path")
    shared = dataclasses.replace(spec, medium="csma-4")
    assert _spec_config(shared)["medium"] == "csma-4"
    assert fingerprint(_spec_config(shared), kind="path") \
        != fingerprint(legacy, kind="path")
    with pytest.raises(ConfigError):
        dataclasses.replace(spec, medium="csma-0")


def test_campaign_medium_param_reaches_every_spec():
    from repro.core.campaign import Campaign
    default = Campaign(n_paths=4, seed=0, duration=5.0)
    shared = Campaign(n_paths=4, seed=0, duration=5.0, medium="csma-4")
    assert {s.medium for s in default.specs} == {"queue"}
    assert {s.medium for s in shared.specs} == {"csma-4"}
    assert shared.fingerprint() != default.fingerprint()


def test_serve_campaign_params_accept_medium():
    from repro.core.campaign import Campaign
    from repro.serve.jobs import bind_params
    base = {"n_paths": 4, "seed": 0, "duration": 5.0}

    def campaign(params):
        return Campaign(**bind_params("campaign", params))

    default = campaign(base)
    explicit = campaign({**base, "medium": "queue"})
    assert default.fingerprint() == explicit.fingerprint()
    shared = campaign({**base, "medium": "csma-4"})
    assert shared.fingerprint() != default.fingerprint()
    with pytest.raises(ConfigError):
        bind_params("campaign", {**base, "medium": "token-ring"})
    with pytest.raises(ConfigError):
        bind_params("campaign", {**base, "medium": 4})

"""The scenario feature map: bucket functions, cell ids, and the
corpus-admission accounting guided search is built on."""

import pytest

from repro.qa.features import (FeatureMap, buffer_bucket, cca_mix_class,
                               confidence_bucket, detector_confidence,
                               feature_cell, jitter_bucket, load_bucket,
                               probe_share_bucket,
                               queue_residency_bucket)
from repro.qa.scenario import FlowSpec, Scenario, run_scenario


def _flows_scenario(**kwargs) -> Scenario:
    base = dict(family="flows", rate_mbps=8.0, rtt_ms=20.0,
                qdisc="droptail", duration=3.0, seed=1,
                flows=(FlowSpec(cca="reno", rate_frac=0.5, user_id="a"),),
                backend="fluid")
    base.update(kwargs)
    return Scenario(**base)


def _probe_scenario(**kwargs) -> Scenario:
    base = dict(family="probe", rate_mbps=20.0, rtt_ms=20.0,
                qdisc="droptail", duration=12.0, seed=1,
                cross_traffic="none", backend="fluid")
    base.update(kwargs)
    return Scenario(**base)


def test_cca_mix_class():
    assert cca_mix_class(_probe_scenario()) == "probe"
    assert cca_mix_class(_flows_scenario()) == "loss"
    mixed = _flows_scenario(flows=(
        FlowSpec(cca="reno", rate_frac=0.3, user_id="a"),
        FlowSpec(cca="vegas", rate_frac=0.3, user_id="b")))
    assert cca_mix_class(mixed) == "mixed"
    same_class = _flows_scenario(flows=(
        FlowSpec(cca="reno", rate_frac=0.3, user_id="a"),
        FlowSpec(cca="cubic", rate_frac=0.3, user_id="b")))
    assert cca_mix_class(same_class) == "loss"


def test_scenario_side_buckets():
    assert buffer_bucket(_flows_scenario(buffer_multiplier=0.5)) \
        == "shallow"
    assert buffer_bucket(_flows_scenario(buffer_multiplier=1.0)) == "bdp"
    assert buffer_bucket(_flows_scenario(buffer_multiplier=4.0)) == "deep"
    assert jitter_bucket(_flows_scenario()) == "none"
    assert jitter_bucket(_flows_scenario(timing_jitter=0.1)) == "low"
    assert jitter_bucket(_flows_scenario(timing_jitter=0.3)) == "high"


def test_confidence_buckets():
    assert confidence_bucket(None) == "n/a"
    assert confidence_bucket(0.1) == "critical"
    assert confidence_bucket(0.5) == "low"
    assert confidence_bucket(2.0) == "mid"
    assert confidence_bucket(5.0) == "high"


def test_outcome_buckets_from_real_runs():
    flows = _flows_scenario()
    outcome = run_scenario(flows)
    assert load_bucket(flows, outcome) in ("light", "moderate",
                                           "heavy", "saturated")
    assert detector_confidence(outcome) is None
    assert probe_share_bucket(outcome) == "n/a"
    probe = _probe_scenario()
    probe_outcome = run_scenario(probe)
    confidence = detector_confidence(probe_outcome)
    assert confidence is not None and confidence >= 0.0
    share = probe_share_bucket(probe_outcome)
    assert "-" in share and share != "n/a"


def test_feature_cell_id_is_stable_and_complete():
    scenario = _probe_scenario()
    outcome = run_scenario(scenario)
    cell = feature_cell(scenario, outcome)
    parts = cell.as_id().split("|")
    assert len(parts) == 11
    assert parts[0] == "droptail"
    assert parts[1] == "probe"
    assert parts[2] == "none"
    assert parts[5] == "none"  # jitter component, position the
    assert parts[6] == "fluid"  # experiment's cell parser relies on
    assert parts[9] in ("empty", "transient", "standing", "full")
    assert parts[10] == "queue"  # medium is appended last (back-compat)
    assert cell == feature_cell(scenario, outcome)


def test_queue_residency_buckets():
    import dataclasses

    from repro.sim.network import default_buffer_packets
    from repro.units import mbps, ms

    scenario = _flows_scenario()
    outcome = run_scenario(scenario)
    buf = default_buffer_packets(mbps(scenario.rate_mbps),
                                 ms(scenario.rtt_ms),
                                 scenario.buffer_multiplier)

    def bucket(**stats):
        patched = dataclasses.replace(
            outcome, qdisc_stats={**outcome.qdisc_stats, **stats})
        return queue_residency_bucket(scenario, patched)

    assert bucket(residual_packets=0.0, drops=0.0) == "empty"
    assert bucket(residual_packets=0.0, drops=3.0) == "transient"
    assert bucket(residual_packets=0.05 * buf, drops=0.0) == "transient"
    assert bucket(residual_packets=0.5 * buf, drops=0.0) == "standing"
    assert bucket(residual_packets=1.0 * buf, drops=9.0) == "full"


def test_feature_map_accounting():
    fmap = FeatureMap()
    scenario = _probe_scenario()
    outcome = run_scenario(scenario)
    cell, new_cell, new_min = fmap.observe(scenario, outcome)
    assert new_cell and not new_min  # first sight is "new cell" only
    assert fmap.coverage == 1
    _, again_new, again_min = fmap.observe(scenario, outcome,
                                           failed=True)
    assert not again_new and not again_min  # same confidence: no min
    stats = fmap.cells[cell.as_id()]
    assert stats["hits"] == 2 and stats["failures"] == 1
    assert fmap.min_confidence() == detector_confidence(outcome)


def test_feature_map_new_minimum_detection():
    import dataclasses
    fmap = FeatureMap()
    scenario = _probe_scenario()
    real = run_scenario(scenario)
    # Pin the elasticity so both observations share a confidence
    # bucket (and thus a cell) while the confidence itself drops:
    # 3.5 and 3.2 are both distance >= 1.0 from the threshold ("mid").
    first = dataclasses.replace(
        real, probe={**real.probe, "mean_elasticity": 3.5})
    lower = dataclasses.replace(
        real, probe={**real.probe, "mean_elasticity": 3.2})
    cell, new_cell, new_min = fmap.observe(scenario, first)
    assert new_cell and not new_min
    got, again_new, again_min = fmap.observe(scenario, lower)
    assert got.as_id() == cell.as_id()
    assert not again_new and again_min
    assert fmap.cells[cell.as_id()]["min_confidence"] \
        == pytest.approx(1.2)
    # Moving back up never counts as a new minimum.
    _, _, worse_min = fmap.observe(scenario, first)
    assert not worse_min


def test_feature_map_to_dict_is_sorted_and_deterministic():
    fmap = FeatureMap()
    for seed in (5, 3, 9):
        scenario = _flows_scenario(seed=seed,
                                   qdisc=("fq" if seed == 3 else "red"))
        fmap.observe(scenario, run_scenario(scenario))
    payload = fmap.to_dict()
    assert list(payload["cells"]) == sorted(payload["cells"])
    assert payload["coverage"] == fmap.coverage
    import json
    assert json.dumps(payload, sort_keys=True) \
        == json.dumps(fmap.to_dict(), sort_keys=True)

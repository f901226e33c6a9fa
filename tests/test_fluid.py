"""Tests for the fluid (rate-based) simulation backend."""

import pytest

from repro.core.campaign import Campaign, PathSpec, run_path
from repro.errors import ConfigError
from repro.fluid import FluidModel, run_path_fluid, run_scenario_fluid
from repro.fluid.flows import make_flow_cca
from repro.qa.scenario import FlowSpec, Scenario, run_scenario
from repro.units import mbps, ms


def _probe_scenario(cross="reno", rate=20.0, rtt=20.0, qdisc="droptail",
                    duration=20.0, seed=1, backend="fluid"):
    return Scenario(family="probe", rate_mbps=rate, rtt_ms=rtt,
                    qdisc=qdisc, duration=duration, seed=seed,
                    cross_traffic=cross, backend=backend)


# -- scenario plumbing ------------------------------------------------------

def test_backend_field_validates():
    with pytest.raises(ConfigError):
        _probe_scenario(backend="quantum")


def test_to_dict_omits_default_backend():
    packet = _probe_scenario(backend="packet")
    fluid = _probe_scenario(backend="fluid")
    assert "backend" not in packet.to_dict()
    assert fluid.to_dict()["backend"] == "fluid"
    # Round-trips through from_dict either way.
    assert Scenario.from_dict(packet.to_dict()) == packet
    assert Scenario.from_dict(fluid.to_dict()) == fluid


def test_label_tags_non_default_backend():
    assert "backend" not in _probe_scenario(backend="packet").label()
    assert "backend=fluid" in _probe_scenario(backend="fluid").label()


def test_run_scenario_dispatches_to_fluid():
    outcome = run_scenario(_probe_scenario(duration=8.0))
    # The fluid model ticks at 5 ms: 8 s -> 1600 ticks, far below the
    # packet backend's event count for the same scenario.
    assert outcome.events_processed == 1600
    assert outcome.probe is not None
    assert outcome.violations == []


# -- determinism ------------------------------------------------------------

def test_fluid_scenario_fingerprint_deterministic():
    a = run_scenario(_probe_scenario(duration=10.0))
    b = run_scenario(_probe_scenario(duration=10.0))
    assert a.fingerprint() == b.fingerprint()


def test_fluid_campaign_worker_invariance():
    kwargs = dict(n_paths=3, seed=11, duration=8.0, backend="fluid")
    serial = Campaign(**kwargs).run(workers=1, store=None)
    parallel = Campaign(**kwargs).run(workers=3, store=None)
    key = lambda r: (r.spec.seed, r.verdict.contending,
                     r.verdict.mean_elasticity,
                     r.report.mean_throughput)
    assert [key(r) for r in serial.results] \
        == [key(r) for r in parallel.results]


# -- verdict spot checks (one cell per envelope class) ----------------------

def test_elastic_cell_reads_contending():
    outcome = run_scenario(_probe_scenario("reno", 20.0, 20.0))
    assert outcome.probe["contending"]


def test_inelastic_cell_reads_clean():
    outcome = run_scenario(_probe_scenario("cbr", 48.0, 20.0))
    assert not outcome.probe["contending"]


def test_idle_path_reads_clean():
    outcome = run_scenario(_probe_scenario("none", 48.0, 20.0))
    assert not outcome.probe["contending"]
    assert outcome.probe["mean_elasticity"] < 0.5


# -- flows family -----------------------------------------------------------

def test_flows_family_delivers_bytes():
    scenario = Scenario(
        family="flows", rate_mbps=24.0, rtt_ms=20.0, qdisc="droptail",
        duration=10.0, seed=2, cross_traffic="none", backend="fluid",
        flows=(FlowSpec(cca="reno"), FlowSpec(cca="cubic")))
    outcome = run_scenario(scenario)
    assert set(outcome.delivered) == {"flow-0", "flow-1"}
    assert all(v > 0 for v in outcome.delivered.values())
    capacity = mbps(24.0) * 10.0
    assert sum(outcome.delivered.values()) <= capacity * 1.05


def test_qdisc_stats_conserve_bytes():
    # Drops are removed before acceptance, so accepted = served +
    # residual exactly (the same self-consistency the packet-side
    # invariant auditor checks).
    outcome = run_scenario(_probe_scenario(duration=10.0))
    stats = outcome.qdisc_stats
    assert stats["enqueued"] == pytest.approx(
        stats["dequeued"] + stats["residual_packets"], abs=0.01)
    assert stats["drops"] >= 0.0


# -- campaign / run_path ----------------------------------------------------

def test_run_path_backend_dispatch():
    spec = PathSpec(rate_mbps=48.0, rtt_ms=20.0, qdisc="droptail",
                    cross_traffic="reno", seed=3)
    result = run_path(spec, duration=10.0, backend="fluid")
    assert result.spec == spec
    assert result.report.duration > 0
    with pytest.raises(ConfigError):
        run_path(spec, backend="quantum")


def test_campaign_backend_in_fingerprint_only_when_fluid():
    packet = Campaign(n_paths=2, seed=5, duration=8.0)
    fluid = Campaign(n_paths=2, seed=5, duration=8.0, backend="fluid")
    assert packet.fingerprint() != fluid.fingerprint()
    assert "backend" not in packet._task_config(packet.specs[0])
    assert fluid._task_config(fluid.specs[0])["backend"] == "fluid"


def test_run_path_fluid_matches_run_scenario_probe():
    spec = PathSpec(rate_mbps=20.0, rtt_ms=20.0, qdisc="droptail",
                    cross_traffic="reno", seed=1)
    result = run_path_fluid(spec, duration=20.0)
    assert result.verdict.contending


# -- model basics -----------------------------------------------------------

def test_fluid_model_rejects_empty_and_bad_dt():
    with pytest.raises(ConfigError):
        FluidModel([], mbps(10.0), 1e5)
    flow = make_flow_cca("reno", "f", ms(20.0), mbps(10.0))
    # The step is the module's constant; it takes no argument.
    assert FluidModel([flow], mbps(10.0), 1e5).dt == 0.005
    with pytest.raises(TypeError):
        FluidModel([flow], mbps(10.0), 1e5, dt=0.0)


def test_fluid_model_is_tick_based():
    flow = make_flow_cca("reno", "f", ms(20.0), mbps(10.0))
    model = FluidModel([flow], mbps(10.0), 1e5)
    model.run(1.0)
    assert model.ticks == 200  # 1 s at the 5 ms default step
    assert model.now == pytest.approx(1.0)
    assert flow.delivered_bytes > 0

"""The endpoint timing-jitter axis: seeded pacing/ACK-clock
perturbation on both backends, fingerprint back-compat, and the
oracle/shrinker integration around it."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.qa.scenario import FlowSpec, Scenario, run_scenario
from repro.sim.jitter import (ACK_DELAY_MAX_S, MAX_AMPLITUDE,
                              TimingJitter)


def _probe(backend: str, jitter: float = 0.0) -> Scenario:
    return Scenario(family="probe", rate_mbps=20.0, rtt_ms=20.0,
                    qdisc="droptail", duration=20.0, seed=1,
                    cross_traffic="none", backend=backend,
                    timing_jitter=jitter)


def _flows(backend: str, jitter: float = 0.0) -> Scenario:
    return Scenario(family="flows", rate_mbps=8.0, rtt_ms=20.0,
                    qdisc="droptail", duration=4.0, seed=1,
                    flows=(FlowSpec(cca="reno", rate_frac=0.5,
                                    user_id="a"),),
                    backend=backend, timing_jitter=jitter)


# -- the TimingJitter primitive -------------------------------------------

def test_timing_jitter_validates_amplitude():
    for bad in (0.0, -0.1, MAX_AMPLITUDE + 0.01):
        with pytest.raises(ConfigError):
            TimingJitter(bad, seed=1)
    TimingJitter(MAX_AMPLITUDE, seed=1)  # boundary is legal


def test_timing_jitter_streams_are_seeded_and_independent():
    a = [TimingJitter(0.2, seed=7).pacing_factor() for _ in range(50)]
    b = [TimingJitter(0.2, seed=7).pacing_factor() for _ in range(50)]
    assert a == b  # same seed, same stream
    c = [TimingJitter(0.2, seed=8).pacing_factor() for _ in range(50)]
    assert a != c  # seed matters
    flow = TimingJitter(0.2, seed=7, stream="flow-0")
    probe = TimingJitter(0.2, seed=7, stream="probe")
    assert [flow.pacing_factor() for _ in range(20)] \
        != [probe.pacing_factor() for _ in range(20)]


def test_timing_jitter_bounds():
    jitter = TimingJitter(0.3, seed=3)
    for _ in range(500):
        factor = jitter.pacing_factor()
        # uniform band plus the rare stall bonus
        assert 0.7 <= factor <= 1.3 + 0.3 * 8.0
        delay = jitter.ack_delay()
        assert 0.0 <= delay <= 0.3 * ACK_DELAY_MAX_S


# -- scenario integration --------------------------------------------------

def test_fingerprints_are_backward_compatible():
    # timing_jitter=0.0 must serialize exactly like a pre-jitter
    # scenario, or every corpus case and stored result is orphaned.
    scenario = _probe("packet")
    assert "timing_jitter" not in scenario.to_dict()
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    jittered = _probe("packet", jitter=0.25)
    assert jittered.to_dict()["timing_jitter"] == 0.25
    assert Scenario.from_dict(jittered.to_dict()) == jittered
    assert "jitter=0.25" in jittered.label()


def test_scenario_rejects_out_of_range_jitter():
    for bad in (-0.1, MAX_AMPLITUDE + 0.1):
        with pytest.raises(ConfigError):
            _probe("packet", jitter=bad)


@pytest.mark.parametrize("backend", ("packet", "fluid"))
def test_jitter_changes_the_outcome_deterministically(backend):
    base = run_scenario(_probe(backend))
    jittered = run_scenario(_probe(backend, jitter=0.3))
    again = run_scenario(_probe(backend, jitter=0.3))
    assert jittered.fingerprint() == again.fingerprint()
    assert jittered.fingerprint() != base.fingerprint()


@pytest.mark.parametrize("backend", ("packet", "fluid"))
def test_jitter_applies_to_flows_family_too(backend):
    base = run_scenario(_flows(backend))
    jittered = run_scenario(_flows(backend, jitter=0.3))
    assert jittered.fingerprint() != base.fingerprint()


def test_jitter_degrades_detector_confidence_on_packet():
    # The 2BRobust effect the axis exists for: endpoint timing noise
    # drags the probe's elasticity estimate toward the threshold.
    base = run_scenario(_probe("packet"))
    jittered = run_scenario(_probe("packet", jitter=0.3))
    from repro.qa.features import detector_confidence
    assert detector_confidence(jittered) < detector_confidence(base)


# -- oracle and shrinker integration ---------------------------------------

def test_fluid_packet_agreement_oracle_skips_jittered_scenarios():
    # Fluid's rate noise is only a coarse analogue of packet-level
    # pacing jitter, so cross-backend agreement is not a property
    # there (satellite: oracle applicability gate).
    from repro.qa.oracles import FluidPacketAgreementOracle
    oracle = FluidPacketAgreementOracle()
    clean = dataclasses.replace(_probe("packet"), cross_traffic="reno")
    assert oracle.applies(clean)
    assert not oracle.applies(
        dataclasses.replace(clean, timing_jitter=0.2))


def test_shrinker_offers_jitter_removal():
    from repro.qa.shrink import _candidates
    jittered = _probe("packet", jitter=0.2)
    descriptions = [d for d, _ in _candidates(jittered)]
    assert "remove timing jitter" in descriptions
    candidates = dict(_candidates(jittered))
    assert candidates["remove timing jitter"].timing_jitter == 0.0
    assert "remove timing jitter" not in dict(_candidates(_probe("packet")))

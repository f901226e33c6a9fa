"""Unit tests for the RTT estimator and RTO."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.tcp import RttEstimator


def test_first_sample_initializes_srtt():
    est = RttEstimator()
    est.update(0.1)
    assert est.srtt == pytest.approx(0.1)
    assert est.rttvar == pytest.approx(0.05)


def test_min_rtt_tracks_minimum():
    est = RttEstimator()
    for rtt in (0.3, 0.1, 0.2):
        est.update(rtt)
    assert est.min_rtt == pytest.approx(0.1)


def test_rto_at_least_min_rto():
    est = RttEstimator()
    for _ in range(20):
        est.update(0.01)
    assert est.rto >= 0.2


def test_rto_formula_for_stable_rtt():
    est = RttEstimator()
    for _ in range(100):
        est.update(0.5)
    # rttvar decays toward 0, so rto -> srtt (above the 200 ms floor).
    assert est.rto == pytest.approx(0.5, rel=0.2)


def test_variance_raises_rto():
    stable = RttEstimator()
    jittery = RttEstimator()
    for i in range(50):
        stable.update(0.1)
        jittery.update(0.05 if i % 2 else 0.15)
    assert jittery.rto > stable.rto


def test_backoff_doubles_and_clamps():
    est = RttEstimator()
    rtos = []
    for _ in range(8):
        est.backoff()
        rtos.append(est.rto)
    assert rtos == [2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0, 60.0]


def test_initial_rto_used_before_samples():
    est = RttEstimator()
    assert est.rto == 1.0


def test_rejects_bad_config_and_samples():
    with pytest.raises(TypeError):
        RttEstimator(min_rto=0.5, max_rto=0.1)
    est = RttEstimator()
    with pytest.raises(ConfigError):
        est.update(0.0)


@given(st.lists(st.floats(min_value=1e-4, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=100))
def test_property_srtt_within_sample_range(samples):
    est = RttEstimator()
    for s in samples:
        est.update(s)
    assert min(samples) <= est.srtt <= max(samples) + 1e-12
    assert est.min_rtt == pytest.approx(min(samples))
    assert est.samples == len(samples)

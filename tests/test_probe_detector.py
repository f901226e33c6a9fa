"""Tests for the elasticity probe, detector, and Nimbus CCA wiring.

These are the paper's §3.2 claims in miniature: the probe reports
clearly higher elasticity against contending cross traffic than
against application-limited or constant-rate traffic.
"""

import pytest

from repro.cca import RenoCca
from repro.cca.nimbus import NimbusCca
from repro.core.detector import (CLEAN_BELOW, CONTENDING_ABOVE,
                                 ContentionDetector, confusion_counts)
from repro.core.elasticity import ElasticityReading
from repro.core.probe import ElasticityProbe
from repro.errors import ConfigError
from repro.sim import Simulator, dumbbell
from repro.tcp import Connection
from repro.units import mbps, ms, to_mbps


def reading(t, e):
    return ElasticityReading(time=t, elasticity=e, peak_amplitude=0.0,
                             background_amplitude=0.0, mean_cross_rate=0.0)


class TestDetector:
    def test_mean_rule(self):
        det = ContentionDetector(threshold=2.0)
        verdict = det.verdict([reading(1.0, 1.0), reading(2.0, 5.0)])
        assert verdict.contending  # mean 3.0 >= 2.0
        assert verdict.mean_elasticity == pytest.approx(3.0)

    def test_no_readings_is_not_contending(self):
        verdict = ContentionDetector().verdict([])
        assert not verdict.contending
        assert verdict.n_readings == 0

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ContentionDetector(threshold=0)

    def test_fingerprint_config_is_pinned(self):
        # Store keys and envelope fingerprints hash this dict.
        assert ContentionDetector(3.0).fingerprint_config() == {
            "threshold": 3.0, "rule": "mean", "min_fraction": 0.3,
            "warmup": 0.0, "clean_below": 1.5, "contending_above": 2.6}

    def test_confusion_counts(self):
        quality = confusion_counts([True, True, False, False],
                                   [True, False, True, False])
        assert quality["tp"] == 1 and quality["fp"] == 1
        assert quality["fn"] == 1 and quality["tn"] == 1
        assert quality["accuracy"] == 0.5

    def test_confusion_requires_alignment(self):
        with pytest.raises(ConfigError):
            confusion_counts([True], [True, False])


class TestNimbusCca:
    def test_invalid_configs(self):
        # The pulse is checked before the delay target divides by it.
        with pytest.raises(ConfigError, match="frequency"):
            NimbusCca(pulse_freq=0.0)

    def test_capacity_hint_is_mu(self):
        cca = NimbusCca(capacity_hint=6e6)
        assert cca.mu == 6e6

    def test_delay_target_scales_with_pulses(self):
        gentle = NimbusCca(pulse_freq=5.0, pulse_amplitude=0.125)
        strong = NimbusCca(pulse_freq=5.0, pulse_amplitude=0.25)
        assert strong.delay_target > gentle.delay_target

    def test_probe_saturates_empty_link(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(48), ms(100))
        probe = ElasticityProbe(sim, path, capacity_hint=mbps(48))
        probe.start()
        sim.run(until=20.0)
        report = probe.report()
        assert to_mbps(report.mean_throughput) > 35.0

    def test_mu_estimated_without_hint(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(48), ms(100))
        probe = ElasticityProbe(sim, path, capacity_hint=None)
        probe.start()
        sim.run(until=20.0)
        assert to_mbps(probe.cca.mu) > 30.0


class TestProbeEndToEnd:
    """One 30 s probe run per cross type, shared by the class."""

    @pytest.fixture(scope="class")
    def reports(self):
        return {cross: self.run_probe(cross) for cross in ("none", "reno")}

    @staticmethod
    def run_probe(cross: str, duration=30.0):
        sim = Simulator()
        path = dumbbell(sim, mbps(48), ms(100))
        probe = ElasticityProbe(sim, path, capacity_hint=mbps(48))
        probe.start()
        if cross == "reno":
            conn = Connection(sim, path, "cross", RenoCca())
            conn.sender.set_infinite_backlog()
        sim.run(until=duration)
        return probe.report()

    def test_elastic_cross_scores_higher_than_empty(self, reports):
        empty, contended = reports["none"], reports["reno"]
        assert contended.mean_elasticity > 2 * empty.mean_elasticity
        assert contended.mean_elasticity > 2.0
        assert empty.mean_elasticity < 2.0

    def test_report_window_selection(self, reports):
        report = reports["none"]
        assert report.readings
        assert all(6.0 <= r.time < 30.0 for r in report.readings)

    def test_verdict_matches_threshold(self, reports):
        readings = list(reports["reno"].readings)
        assert ContentionDetector(threshold=2.0).verdict(
            readings).contending
        assert not ContentionDetector(threshold=1e9).verdict(
            readings).contending


class TestTriStateVerdict:
    def test_bands(self):
        assert (CLEAN_BELOW, CONTENDING_ABOVE) == (1.5, 2.6)
        det = ContentionDetector()
        assert det.verdict([reading(1.0, 0.8)]).category == "clean"
        assert det.verdict([reading(1.0, 2.0)]).category == "inconclusive"
        assert det.verdict([reading(1.0, 3.5)]).category == "contending"

    def test_no_readings_is_clean(self):
        assert ContentionDetector().verdict([]).category == "clean"

    def test_binary_and_category_are_consistent(self):
        det = ContentionDetector(threshold=2.0)
        confident = det.verdict([reading(1.0, 3.0)])
        assert confident.contending and confident.category == "contending"
        clean = det.verdict([reading(1.0, 1.0)])
        assert not clean.contending and clean.category == "clean"

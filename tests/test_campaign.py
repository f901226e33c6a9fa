"""Tests for measurement campaigns and hypothesis evaluation."""

import pytest

from repro.core.campaign import (Campaign, CampaignResult, PathSpec,
                                 run_path, sample_paths)
from repro.core.hypothesis import evaluate_hypothesis
from repro.errors import ConfigError


def spec(cross="none", qdisc="droptail", rate=20.0, rtt=50.0, seed=1):
    return PathSpec(rate_mbps=rate, rtt_ms=rtt, qdisc=qdisc,
                    cross_traffic=cross, seed=seed)


class TestPathSpec:
    def test_ground_truth_elastic_fifo(self):
        assert spec("reno", "droptail").truly_contending
        assert spec("bbr", "droptail").truly_contending

    def test_fq_isolates_even_elastic_cross(self):
        assert not spec("reno", "fq").truly_contending

    def test_inelastic_never_contends(self):
        for cross in ("none", "video", "poisson", "cbr"):
            assert not spec(cross, "droptail").truly_contending

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            PathSpec(rate_mbps=0, rtt_ms=50, qdisc="droptail",
                     cross_traffic="none")
        with pytest.raises(ConfigError):
            PathSpec(rate_mbps=10, rtt_ms=50, qdisc="magic",
                     cross_traffic="none")


class TestSamplePaths:
    def test_count_and_determinism(self):
        a = sample_paths(20, seed=3)
        b = sample_paths(20, seed=3)
        assert len(a) == 20
        assert a == b

    def test_fq_fraction_respected(self):
        specs = sample_paths(300, seed=1, fq_fraction=0.5)
        fq = sum(1 for s in specs if s.qdisc == "fq")
        assert 0.35 < fq / 300 < 0.65

    def test_bad_mix_rejected(self):
        with pytest.raises(ConfigError):
            sample_paths(5, cross_traffic_mix=(("none", 0.5),))

    def test_zero_paths_rejected(self):
        with pytest.raises(ConfigError):
            sample_paths(0)


class TestRunPath:
    def test_fifo_reno_detected_as_contending(self):
        result = run_path(spec("reno", "droptail", rate=20.0, rtt=50.0),
                          duration=25.0)
        assert result.verdict.contending
        assert result.spec.truly_contending

    def test_fq_reno_is_isolation_masked(self):
        # Under per-flow FQ a backlogged competitor pins the probe's
        # delivery rate at its fair share, so ẑ mirrors the probe's own
        # pulses: the path *reads* contending although FQ, not CCA
        # dynamics, decides the allocation.  The campaign accounts for
        # this via the isolation_masked bucket.
        result = run_path(spec("reno", "fq", rate=20.0, rtt=50.0),
                          duration=25.0)
        assert result.spec.isolation_masked
        assert result.verdict.contending  # the documented artifact

    def test_fq_idle_reads_clean(self):
        result = run_path(spec("none", "fq", rate=20.0, rtt=50.0),
                          duration=20.0)
        assert not result.spec.isolation_masked
        assert not result.verdict.contending

    def test_empty_path_not_contending(self):
        result = run_path(spec("none"), duration=20.0)
        assert not result.verdict.contending

    @pytest.mark.parametrize("medium", ["queue", "csma-3"])
    def test_quicklook_is_run_path(self, medium):
        # One builder behind both: same 1xBDP (per-station) buffer,
        # same probe, same numbers -- on a shared medium too, where
        # quicklook once ran on MediumLink's 100-packet default.
        from repro.core.quicklook import run_quicklook
        from repro.units import to_mbps
        shape = dict(rate_mbps=10.0, rtt_ms=20.0, seed=4)
        look = run_quicklook(cross_traffic="reno", duration=9.0,
                             medium=medium, **shape)
        result = run_path(PathSpec(qdisc="droptail", cross_traffic="reno",
                                   medium=medium, **shape), duration=9.0)
        assert look.mean_elasticity == result.report.mean_elasticity
        assert look.verdict == result.verdict.contending
        assert look.category == result.verdict.category
        assert look.probe_throughput_mbps \
            == to_mbps(result.report.mean_throughput)
        assert (look.cross_traffic, look.duration) == ("reno", 9.0)


class TestCampaignAggregation:
    @pytest.fixture(scope="class")
    def campaign(self) -> CampaignResult:
        results = [
            run_path(spec("reno", "droptail", seed=1), duration=20.0),
            run_path(spec("cbr", "droptail", seed=2), duration=20.0),
            run_path(spec("none", "droptail", seed=3), duration=20.0),
            run_path(spec("reno", "fq", seed=4), duration=20.0),
        ]
        return CampaignResult(results=results)

    def test_fraction_contending(self, campaign):
        # reno-droptail and the masked fq-reno path both read
        # contending; ground truth says only the former is.
        assert campaign.fraction_contending == pytest.approx(0.5)
        assert campaign.true_fraction_contending == pytest.approx(0.25)

    def test_detector_quality_perfect_on_visible_paths(self, campaign):
        quality = campaign.detector_quality()  # masked excluded
        assert quality["accuracy"] == 1.0

    def test_masked_summary_documents_artifact(self, campaign):
        masked = campaign.masked_summary()
        assert masked["n_masked"] == 1.0
        assert masked["fraction_reads_contending"] == 1.0

    def test_grouping(self, campaign):
        groups = campaign.by_cross_traffic()
        assert set(groups) == {"reno", "cbr", "none"}
        assert len(groups["reno"]) == 2

    def test_hypothesis_evaluation(self, campaign):
        ev = evaluate_hypothesis(campaign)
        assert ev.n_paths == 4
        assert ev.fraction_contending == pytest.approx(0.5)
        assert ev.ci_low <= ev.fraction_contending <= ev.ci_high
        assert "%" in ev.describe()

    def test_hypothesis_threshold_binds(self, campaign):
        ev = evaluate_hypothesis(campaign)
        assert ev.threshold == 0.2 < ev.ci_high
        assert not ev.supported
        assert "NOT SUPPORTED" in ev.describe()

    def test_hypothesis_supported_when_no_contention_found(self):
        quiet = CampaignResult(results=[
            run_path(spec("none", "droptail", seed=5), duration=20.0),
            run_path(spec("cbr", "droptail", seed=6), duration=20.0),
            run_path(spec("cbr", "droptail", seed=7), duration=20.0),
            run_path(spec("none", "fq", seed=8), duration=20.0),
        ])
        ev = evaluate_hypothesis(quiet)
        assert ev.supported
        assert "SUPPORTED" in ev.describe()


class TestCampaignClass:
    def test_runs_end_to_end_small(self):
        campaign = Campaign(n_paths=3, seed=2, duration=12.0)
        seen = []
        result = campaign.run(
            progress=lambda done, n: seen.append((done, n)))
        assert len(result.results) == 3
        assert seen == [(1, 3), (2, 3), (3, 3)]

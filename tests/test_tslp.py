"""Tests for the TSLP latency prober and congestion-episode analysis."""

import numpy as np
import pytest

from repro.cca import CubicCca
from repro.core.tslp import (CongestionEpisodes, TslpProber,
                             detect_congestion_episodes)
from repro.errors import AnalysisError, ConfigError
from repro.sim import Simulator, dumbbell
from repro.tcp import Connection
from repro.units import mbps, ms


class TestAnalysis:
    def test_flat_rtts_no_episodes(self):
        t = np.arange(0, 30, 0.1)
        r = np.full_like(t, 0.05)
        result = detect_congestion_episodes(t, r)
        assert not result.congested
        assert result.episodes == ()
        assert result.baseline_rtt == pytest.approx(0.05)

    def test_sustained_inflation_detected(self):
        t = np.arange(0, 30, 0.1)
        r = np.where((t > 10) & (t < 20), 0.12, 0.05)
        result = detect_congestion_episodes(t, r)
        assert result.congested
        assert len(result.episodes) == 1
        start, end = result.episodes[0]
        assert start == pytest.approx(10.1, abs=0.3)
        assert end == pytest.approx(20.0, abs=0.3)

    def test_short_blips_ignored(self):
        t = np.arange(0, 30, 0.1)
        r = np.full_like(t, 0.05)
        r[50:53] = 0.2  # 0.3 s blip < min_episode
        result = detect_congestion_episodes(t, r)
        assert result.episodes == ()

    def test_episode_running_to_end_counted(self):
        t = np.arange(0, 10, 0.1)
        r = np.where(t > 5, 0.15, 0.05)
        result = detect_congestion_episodes(t, r)
        assert len(result.episodes) == 1

    def test_too_few_samples_rejected(self):
        with pytest.raises(AnalysisError):
            detect_congestion_episodes([0, 1], [0.1, 0.1])


class TestProber:
    def test_idle_path_measures_base_rtt(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(20), ms(60))
        prober = TslpProber(sim, path, interval=0.1)
        prober.start()
        sim.run(until=10.0)
        times, rtts = prober.series()
        assert len(rtts) > 80
        assert np.median(rtts) == pytest.approx(0.06, abs=0.01)

    def test_bulk_flow_inflates_probe_rtt(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(20), ms(60), buffer_multiplier=2.0)
        prober = TslpProber(sim, path, interval=0.1)
        prober.start()
        bulk = Connection(sim, path, "bulk", CubicCca())
        bulk.sender.set_infinite_backlog()
        sim.run(until=20.0)
        times, rtts = prober.series()
        result = detect_congestion_episodes(times, rtts)
        assert result.congested

    def test_stop(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(20), ms(60))
        prober = TslpProber(sim, path, interval=0.1)
        prober.start()
        sim.run(until=2.0)
        prober.stop()
        n = len(prober.times)
        sim.run(until=4.0)
        assert len(prober.times) <= n + 2  # in-flight replies only

    def test_invalid_interval(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            TslpProber(sim, dumbbell(sim, mbps(10), ms(40)), interval=0)

"""Tests for the traffic generators."""

import pytest

from repro.cca import RenoCca
from repro.errors import ConfigError
from repro.sim import Simulator, dumbbell
from repro.traffic import (CROSS_TRAFFIC_IS_ELASTIC,
                           CROSS_TRAFFIC_REGISTRY, BackloggedFlow,
                           CbrSource, IdleSource, Phase,
                           PoissonShortFlows, VideoStream,
                           make_cross_traffic)
from repro.units import mbps, ms, to_mbps


def make_path(sim, rate=20.0, rtt=40.0, **kw):
    return dumbbell(sim, mbps(rate), ms(rtt), **kw)


class TestBacklogged:
    def test_saturates_link(self):
        sim = Simulator()
        path = make_path(sim)
        flow = BackloggedFlow(sim, path, "bulk", RenoCca())
        flow.start()
        sim.run(until=10.0)
        assert to_mbps(flow.delivered_bytes / 10.0) > 15.0

    def test_stop_halts_traffic(self):
        sim = Simulator()
        path = make_path(sim)
        flow = BackloggedFlow(sim, path, "bulk", RenoCca())
        flow.start()
        sim.run(until=5.0)
        flow.stop()
        before = path.bottleneck.delivered_bytes
        sim.run(until=6.0)
        # Nothing new beyond what was already queued/in flight.
        after = path.bottleneck.delivered_bytes
        assert after - before < 100_000


class TestCbr:
    def test_holds_configured_rate(self):
        sim = Simulator()
        path = make_path(sim, rate=50.0)
        cbr = CbrSource(sim, path, "cbr", rate=mbps(10))
        cbr.start()
        sim.run(until=10.0)
        assert to_mbps(cbr.delivered_bytes / 10.0) == pytest.approx(
            10.0, rel=0.05)

    def test_does_not_react_to_congestion(self):
        # On an undersized link, CBR keeps sending; deliveries track
        # link capacity, not any backoff.
        sim = Simulator()
        path = make_path(sim, rate=5.0)
        cbr = CbrSource(sim, path, "cbr", rate=mbps(10))
        cbr.start()
        sim.run(until=10.0)
        sent_rate = cbr.sent_packets * cbr.packet_size / 10.0
        assert to_mbps(sent_rate) == pytest.approx(10.0, rel=0.05)
        assert to_mbps(cbr.delivered_bytes / 10.0) < 5.5

    def test_stop(self):
        sim = Simulator()
        path = make_path(sim)
        cbr = CbrSource(sim, path, "cbr", rate=mbps(1))
        cbr.start()
        sim.run(until=1.0)
        cbr.stop()
        sent = cbr.sent_packets
        sim.run(until=2.0)
        assert cbr.sent_packets == sent

    def test_invalid_rate(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            CbrSource(sim, make_path(sim), "x", rate=0)


class TestVideo:
    def test_reaches_top_bitrate_on_fast_link(self):
        sim = Simulator()
        path = make_path(sim, rate=100.0)
        video = VideoStream(sim, path, "video")
        video.start()
        sim.run(until=40.0)
        # Once the buffer is comfortable the top rung (16 Mbit/s) wins.
        late = video.stats.bitrate_history[-5:]
        assert max(late) * 8 / 1e6 == pytest.approx(16.0, rel=0.01)
        # No meaningful rebuffering on a 100 Mbit/s link.
        assert video.stats.stall_time < 0.5

    def test_demand_bounded_by_ladder(self):
        # Key §2.2 property: on a fast link, video uses only what its
        # top bitrate needs.
        sim = Simulator()
        path = make_path(sim, rate=200.0)
        video = VideoStream(sim, path, "video")
        video.start()
        sim.run(until=40.0)
        mean_rate = to_mbps(video.delivered_bytes / 40.0)
        assert mean_rate < 25.0  # well under the 200 Mbit/s link

    def test_downshifts_on_slow_link(self):
        sim = Simulator()
        path = make_path(sim, rate=3.0)
        video = VideoStream(sim, path, "video")
        video.start()
        sim.run(until=40.0)
        late = video.stats.bitrate_history[-5:]
        assert max(late) * 8 / 1e6 <= 3.0

    def test_buffer_capped(self):
        sim = Simulator()
        path = make_path(sim, rate=100.0)
        video = VideoStream(sim, path, "video")
        video.start()
        sim.run(until=30.0)
        assert video.buffer_seconds <= 12.0 + 1e-6

    def test_invalid_ladder(self):
        sim = Simulator()
        # The ladder is the module's; a stream takes no other.
        with pytest.raises(TypeError):
            VideoStream(sim, make_path(sim), "v", ladder_mbps=(5.0, 1.0))


class TestPoisson:
    def test_flows_arrive_and_complete(self):
        sim = Simulator()
        path = make_path(sim, rate=50.0)
        src = PoissonShortFlows(sim, path, arrival_rate=20.0,
                                mean_size=30_000, seed=1)
        src.start()
        sim.run(until=10.0)
        assert len(src.records) > 100
        completed = [r for r in src.records if r.completion_time is not None]
        assert len(completed) > 0.8 * len(src.records)
        assert all(r.completion_time > r.start_time for r in completed)

    def test_offered_load_near_configured(self):
        sim = Simulator()
        path = make_path(sim, rate=100.0)
        src = PoissonShortFlows(sim, path, arrival_rate=30.0,
                                mean_size=50_000, seed=2)
        src.start()
        sim.run(until=20.0)
        mean_size = sum(r.size for r in src.records) / len(src.records)
        assert src.arrival_rate * mean_size == pytest.approx(30.0 * 50_000,
                                                             rel=0.35)

    def test_stop_halts_arrivals(self):
        sim = Simulator()
        path = make_path(sim)
        src = PoissonShortFlows(sim, path, arrival_rate=50.0, seed=3)
        src.start()
        sim.run(until=2.0)
        src.stop()
        n = len(src.records)
        sim.run(until=4.0)
        assert len(src.records) == n

    def test_deterministic_given_seed(self):
        def arrivals(seed):
            sim = Simulator()
            path = make_path(sim)
            src = PoissonShortFlows(sim, path, arrival_rate=10.0,
                                    seed=seed)
            src.start()
            sim.run(until=5.0)
            return [(r.flow_id, r.size) for r in src.records]
        assert arrivals(7) == arrivals(7)
        assert arrivals(7) != arrivals(8)


class TestRegistry:
    def test_all_registered_types_start(self):
        for name in CROSS_TRAFFIC_REGISTRY:
            sim = Simulator()
            path = make_path(sim)
            src = make_cross_traffic(name, sim, path, f"x-{name}", seed=1)
            src.start()
            sim.run(until=1.0)

    def test_truth_labels_cover_registry(self):
        assert set(CROSS_TRAFFIC_IS_ELASTIC) == set(CROSS_TRAFFIC_REGISTRY)

    def test_unknown_name_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            make_cross_traffic("warpspeed", sim, make_path(sim), "x")

    def test_idle_source_never_sends(self):
        src = IdleSource()
        src.start()
        assert src.delivered_bytes == 0

    def test_phase_validation(self):
        with pytest.raises(ConfigError):
            Phase("reno", -1.0)

"""Tests for topology builders, units, and RNG registry."""

import pytest

from repro.cca import CubicCca
from repro.errors import ConfigError
from repro.sim import RngRegistry, Simulator, dumbbell, trace_dumbbell
from repro.sim.network import default_buffer_packets
from repro.sim.trace import constant_rate_trace
from repro.tcp import Connection
from repro.units import (bdp_bytes, bdp_packets, mbps, ms, to_mbps, to_ms,
                         to_usec, kbps)

from .helpers import lossy_dumbbell


class TestUnits:
    def test_mbps_round_trip(self):
        assert to_mbps(mbps(48.0)) == pytest.approx(48.0)

    def test_ms_round_trip(self):
        assert to_ms(ms(100.0)) == pytest.approx(100.0)

    def test_usec_round_trip(self):
        assert to_usec(250.0 / 1_000_000.0) == pytest.approx(250.0)

    def test_kbps(self):
        assert kbps(64.0) == pytest.approx(8_000.0)

    def test_bdp(self):
        # 48 Mbit/s * 100 ms = 600 kB = ~400 x 1500B packets.
        assert bdp_bytes(mbps(48), ms(100)) == pytest.approx(600_000)
        assert bdp_packets(mbps(48), ms(100)) == pytest.approx(400.0)


class TestRng:
    def test_same_name_same_stream(self):
        rngs = RngRegistry(seed=1)
        assert rngs.stream("a") is rngs.stream("a")

    def test_streams_independent_of_creation_order(self):
        first = RngRegistry(seed=1)
        a1 = first.stream("a").random()
        second = RngRegistry(seed=1)
        second.stream("zzz").random()  # extra stream created first
        a2 = second.stream("a").random()
        assert a1 == a2

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("a").random() \
            != RngRegistry(2).stream("a").random()

    def test_fork_is_independent(self):
        parent = RngRegistry(seed=1)
        child = parent.fork("child")
        assert parent.stream("a").random() != child.stream("a").random()


class TestDumbbell:
    def test_invalid_rtt_rejected(self):
        with pytest.raises(ConfigError):
            dumbbell(Simulator(), mbps(10), 0.0)

    def test_default_buffer_is_one_bdp(self):
        assert default_buffer_packets(mbps(48), ms(100)) == 400

    def test_buffer_floor_of_ten(self):
        assert default_buffer_packets(kbps(64), ms(10)) == 10

    def test_round_trip_time_observed(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(10), ms(80))
        conn = Connection(sim, path, "f", CubicCca())
        conn.sender.write(1_000)
        conn.sender.close()
        sim.run(until=2.0)
        # min RTT = propagation + serialization, no queueing.
        assert conn.sender.rtt.min_rtt == pytest.approx(0.080, abs=0.01)

    def test_loss_rate_wiring(self):
        sim = Simulator()
        path = lossy_dumbbell(sim, mbps(10), ms(40), 0.3, seed=1)
        conn = Connection(sim, path, "f", CubicCca())
        conn.sender.set_infinite_backlog()
        sim.run(until=5.0)
        assert conn.sender.tracker.retransmits > 0


class TestTraceDumbbell:
    def test_capacity_matches_trace(self):
        sim = Simulator()
        trace = constant_rate_trace(12.112)  # 1 pkt/ms
        path = trace_dumbbell(sim, trace, ms(40))
        conn = Connection(sim, path, "f", CubicCca())
        conn.sender.set_infinite_backlog()
        sim.run(until=20.0)
        goodput = to_mbps(conn.receiver.received_bytes / 20.0)
        assert goodput > 8.0
        assert goodput <= 12.2

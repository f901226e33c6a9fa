"""Tests for DCTCP (ECN-proportional) and LEDBAT (scavenger) CCAs."""

import pytest

from repro.cca import DctcpCca, LedbatCca, RenoCca
from repro.cca.base import AckSample
from repro.sim import Simulator, dumbbell
from repro.tcp import Connection
from repro.units import mbps, ms, to_mbps


def ack(now=1.0, acked=1448, rtt=0.01, min_rtt=0.01, srtt=0.01,
        inflight=14480, delivered=100_000, ecn=False,
        in_recovery=False):
    return AckSample(now=now, acked_bytes=acked, rtt=rtt, min_rtt=min_rtt,
                     srtt=srtt, inflight_bytes=inflight,
                     delivery_rate=None, delivery_rate_app_limited=False,
                     delivered_total=delivered, in_recovery=in_recovery,
                     ecn_echo=ecn)


class TestDctcpUnits:
    def test_alpha_decays_without_marks(self):
        cca = DctcpCca()
        delivered = 0
        # One window per ack: alpha = (1 - 1/16)^40 < 0.1.
        for i in range(40):
            delivered += 20_000
            cca.on_ack(ack(now=0.01 * i, delivered=delivered,
                           inflight=10_000))
        assert cca.alpha < 0.1

    def test_full_marking_keeps_alpha_high(self):
        cca = DctcpCca()
        delivered = 0
        for i in range(10):
            delivered += 20_000
            cca.on_ack(ack(now=0.01 * i, delivered=delivered,
                           inflight=10_000, ecn=True))
        assert cca.alpha > 0.9

    def test_reduction_proportional_to_alpha(self):
        def make(alpha):
            cca = DctcpCca()
            cca._cwnd = 100.0
            cca.ssthresh = 50.0  # exit slow start
            cca.alpha = alpha
            cca._reduced_this_window = False
            cca._window_end_delivered = 1 << 40  # stay in this window
            return cca

        mild = make(0.1)
        mild.on_ack(ack(ecn=True))
        assert mild.cwnd == pytest.approx(95.0)

        harsh = make(1.0)
        harsh.on_ack(ack(ecn=True))
        assert harsh.cwnd == pytest.approx(50.0)

    def test_one_reduction_per_window(self):
        cca = DctcpCca()
        cca._cwnd = 100.0
        cca.ssthresh = 50.0
        cca.alpha = 1.0
        cca._window_end_delivered = 1 << 40  # keep same window
        cca.on_ack(ack(ecn=True, delivered=100))
        after_first = cca.cwnd
        cca.on_ack(ack(ecn=True, delivered=200))
        # No second cut (only ~one packet of CA growth).
        assert cca.cwnd == pytest.approx(after_first, rel=0.01)
        assert cca.cwnd >= after_first

    def test_loss_still_halves(self):
        cca = DctcpCca()
        cca.on_loss(1.0, 1448)
        assert cca.cwnd == pytest.approx(5.0)

    def test_invalid_gain(self):
        # RFC 8257's gain is the class's; it takes no argument.
        assert DctcpCca.g == 1.0 / 16.0
        with pytest.raises(TypeError):
            DctcpCca(g=0.0)


class TestLedbatUnits:
    def test_grows_below_target(self):
        cca = LedbatCca()
        cca.on_ack(ack(rtt=0.010, min_rtt=0.010))  # zero queueing
        assert cca.cwnd > 2.0

    def test_shrinks_above_target(self):
        cca = LedbatCca()
        cca.on_ack(ack(rtt=0.100, min_rtt=0.010))  # 90 ms queueing
        assert cca.cwnd < 2.0

    def test_equilibrium_at_target(self):
        cca = LedbatCca()
        cca.on_ack(ack(rtt=0.035, min_rtt=0.010))  # exactly on target
        assert cca.cwnd == pytest.approx(2.0)

    def test_invalid_target(self):
        # The 25 ms target is the class's; it takes no argument.
        assert LedbatCca.target == 0.025
        with pytest.raises(TypeError):
            LedbatCca(target=0.0)

    def test_integration_yields_to_reno(self):
        # The scavenger property: LEDBAT gets out of the way.
        sim = Simulator()
        path = dumbbell(sim, mbps(20), ms(40), buffer_multiplier=2.0)
        ledbat = Connection(sim, path, "bg", LedbatCca())
        ledbat.sender.set_infinite_backlog()
        sim.run(until=10.0)  # LEDBAT alone first (slow additive ramp)
        alone = ledbat.receiver.received_bytes
        reno = Connection(sim, path, "fg", RenoCca())
        reno.sender.set_infinite_backlog()
        sim.run(until=30.0)
        fg = reno.receiver.received_bytes
        bg = ledbat.receiver.received_bytes - alone
        assert to_mbps(alone / 10.0) > 10.0     # uses idle capacity
        assert fg > 4 * bg                      # then yields hard

    def test_integration_saturates_alone(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(20), ms(40))
        conn = Connection(sim, path, "bg", LedbatCca())
        conn.sender.set_infinite_backlog()
        sim.run(until=10.0)
        assert to_mbps(conn.receiver.received_bytes / 10.0) > 15.0

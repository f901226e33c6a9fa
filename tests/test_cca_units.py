"""Unit tests for CCA window arithmetic (synthetic ACK streams)."""

import pytest

from repro.cca import (AckSample, BbrCca, CbrCca, CopaCca, CubicCca,
                       NewRenoCca, RenoCca, VegasCca, WindowedExtremum,
                       make_cca)
from repro.errors import ConfigError


def ack(now=1.0, acked=1448, rtt=0.05, min_rtt=0.05, srtt=0.05,
        inflight=14480, rate=None, rate_app_limited=False,
        delivered=100_000, in_recovery=False, ecn=False):
    return AckSample(now=now, acked_bytes=acked, rtt=rtt, min_rtt=min_rtt,
                     srtt=srtt, inflight_bytes=inflight,
                     delivery_rate=rate,
                     delivery_rate_app_limited=rate_app_limited,
                     delivered_total=delivered, in_recovery=in_recovery,
                     ecn_echo=ecn)


def with_cwnd(cca, cwnd):
    """``cca`` started from a window of ``cwnd`` packets."""
    cca._cwnd = float(cwnd)
    return cca


class TestRegistry:
    def test_all_names_buildable(self):
        for name in ("reno", "newreno", "cubic", "vegas", "copa", "bbr"):
            cca = make_cca(name)
            assert cca.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_cca("quic-magic")


class TestReno:
    def test_slow_start_doubles_per_rtt(self):
        cca = RenoCca(initial_cwnd=10.0)
        # 10 acks of one packet each ~ one RTT of IW10.
        for _ in range(10):
            cca.on_ack(ack())
        assert cca.cwnd == pytest.approx(20.0)

    def test_congestion_avoidance_adds_one_per_rtt(self):
        cca = RenoCca(initial_cwnd=10.0)
        cca.ssthresh = 10.0
        for _ in range(10):
            cca.on_ack(ack())
        assert cca.cwnd == pytest.approx(11.0, rel=0.02)

    def test_loss_halves(self):
        cca = RenoCca(initial_cwnd=20.0)
        cca.ssthresh = 10.0
        cca.on_loss(1.0, 1448)
        assert cca.cwnd == pytest.approx(10.0)
        assert cca.ssthresh == pytest.approx(10.0)

    def test_rto_collapses_to_one(self):
        cca = RenoCca(initial_cwnd=20.0)
        cca.ssthresh = 10.0
        cca.on_rto(1.0)
        assert cca.cwnd == 1.0

    def test_min_cwnd_floor(self):
        cca = RenoCca(initial_cwnd=2.0)
        cca.ssthresh = 1.0
        cca.on_loss(1.0, 1448)
        assert cca.cwnd >= 2.0

    def test_frozen_during_recovery(self):
        cca = RenoCca(initial_cwnd=10.0)
        before = cca.cwnd
        cca.on_ack(ack(in_recovery=True))
        assert cca.cwnd == before

    def test_ecn_halves_once_per_rtt(self):
        cca = RenoCca(initial_cwnd=16.0)
        cca.ssthresh = 8.0
        cca.on_ack(ack(now=1.0, ecn=True, srtt=0.1))
        after_first = cca.cwnd
        cca.on_ack(ack(now=1.01, ecn=True, srtt=0.1))
        assert cca.cwnd == after_first  # within the same RTT
        cca.on_ack(ack(now=1.2, ecn=True, srtt=0.1))
        assert cca.cwnd < after_first

    def test_abc_caps_jump_acks(self):
        cca = RenoCca(initial_cwnd=10.0)
        cca.on_ack(ack(acked=100 * 1448))  # SACK-hole jump
        assert cca.cwnd <= 12.0

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            RenoCca(initial_cwnd=0.5)

    def test_newreno_shares_arithmetic(self):
        assert isinstance(NewRenoCca(), RenoCca)


class TestCubic:
    def test_slow_start_capped_at_ssthresh(self):
        cca = CubicCca()
        cca.ssthresh = 15.0
        # Five 1-packet acks reach exactly ssthresh; a jump-ack next
        # would overshoot without the cap.
        for _ in range(4):
            cca.on_ack(ack())
        cca.on_ack(ack(acked=10 * 1448))
        assert cca.cwnd == pytest.approx(15.0)

    def test_loss_multiplies_by_beta(self):
        cca = with_cwnd(CubicCca(), 100.0)
        cca.ssthresh = 50.0  # leave slow start
        cca.on_loss(1.0, 1448)
        assert cca.cwnd == pytest.approx(70.0)

    def test_growth_approaches_w_max_then_exceeds(self):
        cca = with_cwnd(CubicCca(), 100.0)
        cca.ssthresh = 50.0
        cca.on_loss(0.0, 1448)  # w_max = 100, cwnd = 70
        t, cwnd_track = 0.0, []
        for i in range(4000):
            t += 0.01
            cca.on_ack(ack(now=t, srtt=0.05))
            cwnd_track.append(cca.cwnd)
        assert max(cwnd_track) > 100.0  # eventually probes beyond w_max
        # Concave first: early growth rate decreasing.
        assert cwnd_track[100] < 100.0

    def test_ca_growth_never_exceeds_target_jump(self):
        cca = with_cwnd(CubicCca(), 50.0)
        cca.ssthresh = 10.0
        cca.w_max = 60.0
        cca.on_ack(ack(now=100.0, acked=80 * 1448, srtt=0.05))
        # Even with a giant ack, growth bounded by cubic target.
        assert cca.cwnd < 200.0

    def test_invalid_config(self):
        # RFC 8312's constants are the class's; they take no argument.
        assert (CubicCca.c, CubicCca.beta) == (0.4, 0.7)
        with pytest.raises(TypeError):
            CubicCca(beta=1.5)


class TestVegas:
    def test_grows_when_queue_below_alpha(self):
        cca = VegasCca()
        cca._in_slow_start = False
        # rtt == min_rtt: zero queue -> grow 1 per RTT.
        cca.on_ack(ack(now=1.0, rtt=0.05, min_rtt=0.05))
        assert cca.cwnd == pytest.approx(11.0)

    def test_shrinks_when_queue_above_beta(self):
        cca = with_cwnd(VegasCca(), 20.0)
        cca._in_slow_start = False
        # queue estimate = cwnd * (1 - min/rtt) ... choose rtt so diff>4
        cca.on_ack(ack(now=1.0, rtt=0.10, min_rtt=0.05))
        assert cca.cwnd == pytest.approx(19.0)

    def test_holds_between_alpha_and_beta(self):
        cca = VegasCca()
        cca._in_slow_start = False
        # diff = cwnd*(1 - min/rtt) = 10*(1-0.05/0.0725) ~ 3.1
        cca.on_ack(ack(now=1.0, rtt=0.0725, min_rtt=0.05))
        assert cca.cwnd == pytest.approx(10.0)

    def test_once_per_rtt(self):
        cca = VegasCca()
        cca._in_slow_start = False
        cca.on_ack(ack(now=1.0, rtt=0.05, min_rtt=0.05, srtt=0.05))
        cca.on_ack(ack(now=1.01, rtt=0.05, min_rtt=0.05, srtt=0.05))
        assert cca.cwnd == pytest.approx(11.0)  # second ack ignored

    def test_slow_start_exit_on_gamma(self):
        cca = VegasCca()
        assert cca.in_slow_start
        cca.on_ack(ack(now=1.0, rtt=0.2, min_rtt=0.05))
        assert not cca.in_slow_start


class TestBbr:
    def test_startup_grows_pacing_with_bandwidth(self):
        cca = BbrCca()
        for i in range(6):
            cca.on_ack(ack(now=0.05 * i, rate=1e6 * 2 ** i,
                           delivered=10_000 * (i + 1)))
        # Bandwidth still growing 2x per sample: must not leave STARTUP.
        assert cca.state == "STARTUP"
        assert cca.pacing_rate > 1e6

    def test_exits_startup_when_bw_plateaus(self):
        cca = BbrCca()
        delivered = 0
        now = 0.0
        for _ in range(60):
            now += 0.05
            delivered += 20_000
            cca.on_ack(ack(now=now, rate=5e6, delivered=delivered,
                           inflight=10_000))
        assert cca.state in ("DRAIN", "PROBE_BW")

    def test_probe_bw_cycles_gains(self):
        cca = BbrCca()
        delivered, now = 0, 0.0
        for _ in range(400):
            now += 0.02
            delivered += 20_000
            cca.on_ack(ack(now=now, rate=5e6, delivered=delivered,
                           inflight=10_000))
        assert cca.state in ("PROBE_BW", "PROBE_RTT")

    def test_app_limited_samples_ignored_unless_larger(self):
        cca = BbrCca()
        cca.on_ack(ack(now=0.1, rate=10e6, delivered=10_000))
        # Smaller app-limited sample: ignored (it underestimates).
        cca.on_ack(ack(now=0.2, rate=5e6, delivered=20_000,
                       rate_app_limited=True))
        assert cca.bandwidth == pytest.approx(10e6)
        # Larger app-limited sample: counted (BBR's rule -- a rate you
        # achieved is a rate the path supports).
        cca.on_ack(ack(now=0.3, rate=50e6, delivered=30_000,
                       rate_app_limited=True))
        assert cca.bandwidth == pytest.approx(50e6)

    def test_ignores_loss(self):
        cca = BbrCca()
        cca.on_ack(ack(now=0.1, rate=10e6, delivered=10_000))
        before = cca.cwnd
        cca.on_loss(0.2, 1448)
        assert cca.cwnd == before


class TestCopa:
    def test_grows_without_queue(self):
        cca = CopaCca()
        cca.on_ack(ack(now=0.1, rtt=0.05, min_rtt=0.05))
        assert cca.cwnd > 10.0

    def test_shrinks_with_large_queue(self):
        cca = with_cwnd(CopaCca(), 50.0)
        cca._in_slow_start = False
        for i in range(20):
            cca.on_ack(ack(now=0.1 + 0.01 * i, rtt=0.25, min_rtt=0.05,
                           srtt=0.25))
        assert cca.cwnd < 50.0

    def test_loss_halves(self):
        cca = with_cwnd(CopaCca(), 40.0)
        cca.on_loss(1.0, 1448)
        assert cca.cwnd == pytest.approx(20.0)

    def test_paces_at_twice_cwnd_rate(self):
        cca = CopaCca()
        cca.on_ack(ack(now=0.1, rtt=0.05, min_rtt=0.05, srtt=0.05))
        assert cca.pacing_rate == pytest.approx(
            2.0 * cca.cwnd * cca.mss / 0.05, rel=0.01)


class TestCbr:
    def test_fixed_rate_ignores_everything(self):
        cca = CbrCca(rate=1e6)
        cca.on_loss(1.0, 1448)
        cca.on_rto(2.0)
        assert cca.pacing_rate == 1e6
        assert cca.cwnd > 1e6  # effectively unlimited

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            CbrCca(rate=0)


class TestWindowedExtremum:
    def test_max_tracks_window(self):
        f = WindowedExtremum(window=10.0, mode="max")
        f.update(0.0, 5.0)
        f.update(1.0, 3.0)
        assert f.value == 5.0
        f.update(11.0, 2.0)  # 5.0 expired
        assert f.value == 3.0
        f.update(12.0, 1.0)  # 3.0 expired too (key 1.0 < horizon 2.0)
        assert f.value == 2.0

    def test_min_mode(self):
        f = WindowedExtremum(window=10.0, mode="min")
        f.update(0.0, 5.0)
        f.update(1.0, 8.0)
        assert f.value == 5.0

    def test_empty_returns_none(self):
        assert WindowedExtremum(1.0).value is None

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            WindowedExtremum(1.0, mode="median")

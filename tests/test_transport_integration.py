"""Integration tests: transport endpoints over simulated paths.

These exercise the full stack -- sender, qdisc, link, delay, receiver,
ACK path -- and check end-to-end behaviours: link saturation, loss
recovery, receiver-window limits, app-limited accounting, completion,
and basic fairness.
"""

import pytest

from repro.cca import BbrCca, CubicCca, NewRenoCca, RenoCca, VegasCca
from repro.qdisc import DropTailQueue
from repro.sim import Simulator, dumbbell
from repro.tcp import Connection, LimitState
from repro.units import DEFAULT_MSS, mbps, ms, to_mbps

from .helpers import advertise_window, lossy_dumbbell


def run_bulk(cca_factory, rate_mbps=10.0, rtt_ms=40.0, duration=15.0,
             rwnd=None, buffer_multiplier=1.0):
    sim = Simulator()
    path = dumbbell(sim, mbps(rate_mbps), ms(rtt_ms),
                    buffer_multiplier=buffer_multiplier)
    conn = Connection(sim, path, "flow0", cca_factory())
    if rwnd is not None:
        advertise_window(conn, rwnd)
    conn.sender.set_infinite_backlog()
    sim.run(until=duration)
    return sim, path, conn


class TestBulkTransfer:
    @pytest.mark.parametrize("cca", [RenoCca, NewRenoCca, CubicCca])
    def test_loss_based_cca_saturates_link(self, cca):
        sim, path, conn = run_bulk(cca)
        goodput = conn.receiver.received_bytes / sim.now
        assert to_mbps(goodput) > 8.0  # > 80% of 10 Mbit/s

    def test_bbr_saturates_link(self):
        sim, path, conn = run_bulk(BbrCca)
        goodput = conn.receiver.received_bytes / sim.now
        assert to_mbps(goodput) > 8.0

    def test_vegas_saturates_link_with_low_loss(self):
        sim, path, conn = run_bulk(VegasCca)
        goodput = conn.receiver.received_bytes / sim.now
        assert to_mbps(goodput) > 7.0
        # Vegas should keep the queue small: almost no drops.
        assert path.bottleneck.qdisc.drops < 20

    def test_goodput_never_exceeds_capacity(self):
        sim, path, conn = run_bulk(CubicCca, rate_mbps=5.0)
        goodput = conn.receiver.received_bytes / sim.now
        assert to_mbps(goodput) <= 5.0 + 0.01

    def test_losses_occur_and_are_recovered(self):
        sim, path, conn = run_bulk(RenoCca)
        assert path.bottleneck.qdisc.drops > 0
        assert conn.sender.fast_retransmits > 0
        # Stream integrity: receiver got a contiguous prefix.
        assert conn.receiver.rcv_nxt == conn.receiver.received_bytes

    def test_no_data_no_packets(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(10), ms(40))
        Connection(sim, path, "f", RenoCca())
        sim.run(until=1.0)
        assert path.bottleneck.delivered_bytes == 0


class TestSegmentSize:
    """A CCA counts ACKed bytes in its own sender's MSS."""

    def test_slow_start_grows_one_packet_per_segment_acked(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(20), ms(50),
                        qdisc=DropTailQueue(limit_packets=100))
        cca = RenoCca(initial_cwnd=2)
        conn = Connection(sim, path, "f", cca, mss=500)
        conn.sender.set_infinite_backlog()
        sim.run(until=0.3)
        # Still in slow start, nothing lost, so every ACKed 500-byte
        # segment added one packet of window (not 500/1448 of one).
        assert cca.in_slow_start and conn.sender.fast_retransmits == 0
        assert conn.sender.snd_una > 50 * 500
        assert cca.mss == 500
        assert cca.cwnd == 2 + conn.sender.snd_una / 500

    def test_unbound_cca_counts_in_the_default_mss(self):
        cca = RenoCca()
        assert cca.mss == DEFAULT_MSS
        Connection(Simulator(), dumbbell(Simulator(), mbps(10), ms(40)),
                   "f", cca, mss=500)
        assert cca.mss == 500 and RenoCca().mss == DEFAULT_MSS


class TestReceiverWindow:
    def test_small_rwnd_caps_throughput(self):
        # rwnd = 16 KB, RTT = 100 ms -> max ~1.31 Mbit/s regardless of
        # the 50 Mbit/s link.
        sim, path, conn = run_bulk(CubicCca, rate_mbps=50.0, rtt_ms=100.0,
                                   rwnd=16_000)
        goodput = conn.receiver.received_bytes / sim.now
        cap = 16_000 / 0.1  # bytes/sec
        assert goodput <= cap * 1.1
        assert goodput >= cap * 0.5

    def test_rwnd_limited_time_recorded(self):
        sim, path, conn = run_bulk(CubicCca, rate_mbps=50.0, rtt_ms=100.0,
                                   rwnd=16_000, duration=10.0)
        snap = conn.sender.snapshot()
        assert snap.rwnd_limited_us > 2_000_000  # >2s of 10s run


class TestAppLimited:
    def test_app_limited_time_recorded_for_thin_flow(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(10), ms(40))
        conn = Connection(sim, path, "thin", RenoCca())
        # Write a tiny burst every 500 ms: mostly app-limited.
        def writer():
            conn.sender.write(2_000)
            if sim.now < 9.0:
                sim.schedule(0.5, writer)
        sim.schedule(0.0, writer)
        sim.run(until=10.0)
        snap = conn.sender.snapshot()
        assert snap.app_limited_us > 5_000_000
        assert conn.receiver.received_bytes == pytest.approx(
            conn.sender.tracker.bytes_sent, abs=4_000)

    def test_backlogged_flow_not_app_limited(self):
        sim, path, conn = run_bulk(RenoCca, duration=10.0)
        snap = conn.sender.snapshot()
        assert snap.app_limited_us < 100_000  # < 0.1 s


class TestCompletion:
    def test_short_flow_completes_and_fires_callback(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(10), ms(40))
        conn = Connection(sim, path, "short", RenoCca())
        done = []
        conn.sender.on_complete = done.append
        conn.sender.write(50_000)
        conn.sender.close()
        sim.run(until=5.0)
        assert done and done[0] > 0.04  # at least one RTT
        assert conn.receiver.received_bytes == 50_000

    def test_flow_completes_despite_loss(self):
        sim = Simulator()
        path = lossy_dumbbell(sim, mbps(2), ms(40), 0.02, seed=7,
                              buffer_multiplier=0.5)
        conn = Connection(sim, path, "lossy", NewRenoCca())
        done = []
        conn.sender.on_complete = done.append
        conn.sender.write(200_000)
        conn.sender.close()
        sim.run(until=60.0)
        assert done, "flow did not complete under random loss"
        assert conn.receiver.rcv_nxt == 200_000

    def test_tiny_flow_fits_initial_window(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(10), ms(100))
        conn = Connection(sim, path, "tiny", RenoCca())
        done = []
        conn.sender.on_complete = done.append
        conn.sender.write(5_000)  # ~4 packets < IW10
        conn.sender.close()
        sim.run(until=2.0)
        # One RTT (no slow-start round trips needed beyond the first).
        assert done[0] == pytest.approx(0.1, abs=0.05)


class TestFairness:
    def test_two_reno_flows_share_roughly_equally(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(20), ms(40))
        conns = [Connection(sim, path, f"f{i}", RenoCca()) for i in range(2)]
        for c in conns:
            c.sender.set_infinite_backlog()
        sim.run(until=30.0)
        rates = [c.receiver.received_bytes for c in conns]
        ratio = max(rates) / min(rates)
        assert ratio < 2.0
        total = to_mbps(sum(rates) / sim.now)
        assert total > 16.0

    def test_bbr_beats_reno_in_shallow_buffer(self):
        # Ware et al. (IMC '19), cited in the paper's intro: BBR takes
        # more than its fair share vs loss-based CCAs; the effect is
        # strongest in shallow buffers (in deep buffers BBR's 2xBDP
        # inflight cap lets loss-based flows out-buffer it).
        sim = Simulator()
        path = dumbbell(sim, mbps(20), ms(40), buffer_multiplier=1.0)
        reno = Connection(sim, path, "reno", RenoCca())
        bbr = Connection(sim, path, "bbr", BbrCca())
        reno.sender.set_infinite_backlog()
        bbr.sender.set_infinite_backlog()
        sim.run(until=30.0)
        assert bbr.receiver.received_bytes > reno.receiver.received_bytes


class TestRtoRecovery:
    def test_total_loss_triggers_rto_and_recovery(self):
        sim = Simulator()
        path = dumbbell(sim, mbps(1), ms(40), buffer_multiplier=0.3)
        conn = Connection(sim, path, "f", RenoCca())
        conn.sender.set_infinite_backlog()
        sim.run(until=2.0)
        # Cut the flow's packets off entirely for a while by detaching
        # the receiver (black hole), forcing an RTO.
        path.dst_host.detach("f")
        sim.run(until=6.0)
        path.dst_host.attach("f", conn.receiver.on_packet)
        sim.run(until=20.0)
        assert conn.sender.timeouts >= 1
        # Stream resumed after the black hole lifted.
        assert conn.receiver.rcv_nxt > 0
        goodput_tail = conn.receiver.received_bytes
        assert goodput_tail > 500_000  # made real progress overall

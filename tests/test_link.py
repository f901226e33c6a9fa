"""Unit tests for links (with their propagation delay), loss boxes, and
trace links."""

import pytest

from repro.errors import ConfigError
from repro.qdisc import DropTailQueue, TokenBucketFilter
from repro.sim import CountingSink, Link, Simulator, TraceLink
from repro.units import mbps

from .helpers import LossBox, make_data


def pkt(flow="f", size=1500):
    return make_data(flow, seq=0, payload=size - 52, size=size)


class TestLink:
    def test_serialization_delay(self):
        sim = Simulator()
        sink = CountingSink()
        arrivals = []
        link = Link(sim, rate=1500.0, sink=sink,  # 1 packet per second
                    qdisc=DropTailQueue(limit_packets=100), delay=0.0)
        link.add_tap(lambda p, now: arrivals.append(now))
        link.send(pkt(size=1500))
        sim.run()
        assert arrivals == [1.0]

    def test_back_to_back_packets_queue(self):
        sim = Simulator()
        sink = CountingSink()
        arrivals = []
        link = Link(sim, rate=1500.0, sink=sink,
                    qdisc=DropTailQueue(limit_packets=100), delay=0.0)
        link.add_tap(lambda p, now: arrivals.append(now))
        link.send(pkt())
        link.send(pkt())
        link.send(pkt())
        sim.run()
        assert arrivals == [1.0, 2.0, 3.0]

    def test_queue_overflow_drops(self):
        sim = Simulator()
        sink = CountingSink()
        link = Link(sim, rate=1500.0, sink=sink,
                    qdisc=DropTailQueue(limit_packets=2), delay=0.0)
        for _ in range(5):
            link.send(pkt())
        sim.run()
        # 1 in flight + 2 queued accepted; rest dropped.
        assert link.qdisc.drops == 2
        assert sink.packets == 3

    def test_per_flow_accounting(self):
        sim = Simulator()
        link = Link(sim, rate=mbps(10), sink=CountingSink(),
                    qdisc=DropTailQueue(limit_packets=100), delay=0.0)
        link.send(pkt("a", size=1000))
        link.send(pkt("b", size=500))
        link.send(pkt("a", size=200))
        sim.run()
        assert link.flow_bytes("a") == 1200
        assert link.flow_bytes("b") == 500
        assert link.flow_bytes("nobody") == 0

    def test_invalid_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            Link(sim, rate=0.0, sink=CountingSink(),
                 qdisc=DropTailQueue(limit_packets=100), delay=0.0)

    def test_token_gated_qdisc_wakes_link(self):
        # A TBF inside a fast link: the link must poll again when
        # tokens refill, not stall forever.
        sim = Simulator()
        arrivals = []
        tbf = TokenBucketFilter(rate=1514.0, burst=1514)  # 1 pkt/s
        link = Link(sim, rate=1e9, sink=CountingSink(), qdisc=tbf,
                    delay=0.0)
        link.add_tap(lambda p, now: arrivals.append(now))
        link.send(pkt(size=1514))
        link.send(pkt(size=1514))
        sim.run(until=5.0)
        assert len(arrivals) == 2
        assert arrivals[1] >= 1.0

    def test_busy_time_tracks_utilization(self):
        sim = Simulator()
        link = Link(sim, rate=1500.0, sink=CountingSink(),
                    qdisc=DropTailQueue(limit_packets=100), delay=0.0)
        link.send(pkt(size=750))
        sim.run()
        assert link.busy_time == pytest.approx(0.5)


class ArrivalLog:
    """A sink that records each packet's arrival time (and its flow)."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def send(self, packet):
        self.arrivals.append((self.sim.now, packet.flow_id))


class TestLinkDelay:
    def test_adds_fixed_delay(self):
        sim = Simulator()
        sink = ArrivalLog(sim)
        link = Link(sim, rate=1500.0, sink=sink,
                    qdisc=DropTailQueue(limit_packets=100), delay=0.05)
        link.send(pkt())
        sim.run()
        assert sink.arrivals == [(1.05, "f")]

    def test_is_infinite_capacity(self):
        # A fast link into a long pipe: all 100 packets are in
        # propagation at once, and all arrive, in order.
        sim = Simulator()
        sink = ArrivalLog(sim)
        link = Link(sim, rate=1500.0 * 1000, sink=sink, delay=1.0,
                    qdisc=DropTailQueue(limit_packets=200))
        for i in range(100):
            link.send(pkt(flow=str(i)))
        sim.run()
        assert [flow for _, flow in sink.arrivals] == [
            str(i) for i in range(100)]
        assert [t for t, _ in sink.arrivals] == pytest.approx(
            [1.0 + (i + 1) / 1000 for i in range(100)])

    def test_zero_delay_arrives_when_serialization_ends(self):
        sim = Simulator()
        sink = ArrivalLog(sim)
        taps = []
        link = Link(sim, rate=1500.0, sink=sink,
                    qdisc=DropTailQueue(limit_packets=100), delay=0.0)
        link.add_tap(lambda p, now: taps.append(now))
        for flow in "abc":
            link.send(pkt(flow=flow))
        sim.run()
        assert sink.arrivals == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
        assert taps == [1.0, 2.0, 3.0]
        assert sim.events_processed == 3  # one arrival per packet

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            Link(Simulator(), rate=1500.0, sink=CountingSink(),
                 qdisc=DropTailQueue(limit_packets=100), delay=-0.1)


class TestLossBox:
    def test_zero_loss_passes_everything(self):
        sim = Simulator()
        sink = CountingSink()
        box = LossBox(sim, loss_rate=0.0, sink=sink)
        for _ in range(50):
            box.send(pkt())
        assert sink.packets == 50

    def test_half_loss_drops_roughly_half(self):
        sim = Simulator()
        sink = CountingSink()
        box = LossBox(sim, loss_rate=0.5, sink=sink, seed=42)
        for _ in range(1000):
            box.send(pkt())
        assert 400 < sink.packets < 600
        assert box.dropped == 1000 - sink.packets

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigError):
            LossBox(Simulator(), loss_rate=1.0)


class TestTraceLink:
    def test_one_packet_per_opportunity(self):
        sim = Simulator()
        sink = CountingSink()
        arrivals = []
        link = TraceLink(sim, [10, 20, 30], 0.0, sink=sink,
                         qdisc=DropTailQueue(limit_packets=100))
        link.add_tap(lambda p, now: arrivals.append(now))
        for _ in range(3):
            link.send(pkt())
        sim.run(until=0.05)
        assert arrivals == pytest.approx([0.010, 0.020, 0.030])

    def test_trace_repeats_with_period(self):
        sim = Simulator()
        sink = CountingSink()
        arrivals = []
        link = TraceLink(sim, [10, 20], 0.0, sink=sink,
                         qdisc=DropTailQueue(limit_packets=100))
        link.add_tap(lambda p, now: arrivals.append(now))
        for _ in range(4):
            link.send(pkt())
        sim.run(until=0.06)
        assert arrivals == pytest.approx([0.010, 0.020, 0.030, 0.040])

    def test_idle_opportunities_are_wasted(self):
        sim = Simulator()
        link = TraceLink(sim, [10, 20], 0.0, sink=CountingSink(),
                         qdisc=DropTailQueue(limit_packets=100))
        sim.run(until=0.05)
        assert link.wasted_opportunities >= 4
        assert link.delivered_bytes == 0

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            TraceLink(Simulator(), [], 0.0, sink=CountingSink(),
                      qdisc=DropTailQueue(limit_packets=100))

    def test_decreasing_trace_rejected(self):
        with pytest.raises(ConfigError):
            TraceLink(Simulator(), [20, 10], 0.0, sink=CountingSink(),
                      qdisc=DropTailQueue(limit_packets=100))

"""Integration tests: AQM disciplines under real transport load."""

import numpy as np
import pytest

from repro.cca import CubicCca, RenoCca
from repro.qdisc import CoDelQueue, DropTailQueue, RedQueue
from repro.sim import Simulator, dumbbell
from repro.tcp import Connection
from repro.units import mbps, ms, to_mbps


def run_bulk(qdisc, duration=15.0, rate=10.0, rtt=40.0):
    sim = Simulator()
    path = dumbbell(sim, mbps(rate), ms(rtt), qdisc=qdisc)
    occupancy = []

    def sample():
        occupancy.append(len(path.bottleneck.qdisc))
        sim.schedule(0.05, sample)

    sample()
    conn = Connection(sim, path, "f", CubicCca())
    conn.sender.set_infinite_backlog()
    sim.run(until=duration)
    goodput = to_mbps(conn.receiver.received_bytes / duration)
    return goodput, float(np.percentile(occupancy, 95)), conn


def test_codel_keeps_queue_short_at_similar_goodput():
    deep = DropTailQueue(limit_packets=300)
    goodput_tail, p95_tail, _ = run_bulk(deep)
    codel = CoDelQueue(limit_packets=300)
    goodput_codel, p95_codel, _ = run_bulk(codel)
    assert goodput_codel > goodput_tail * 0.85
    assert p95_codel < p95_tail * 0.6


def test_red_without_ecn_drops():
    red = RedQueue(min_thresh=10, max_thresh=30, limit_packets=100,
                   seed=2)
    goodput, _, conn = run_bulk(red)
    # 6.27 Mbit/s: with no idle-time decay of its average (DESIGN.md
    # §7), RED drops more than it would told the link rate (7.27).
    assert goodput > 6.0
    assert red.drops > 0
    assert red.marks == 0


def test_aqm_fairness_two_flows():
    red = RedQueue(min_thresh=10, max_thresh=40, limit_packets=150,
                   seed=3)
    sim = Simulator()
    path = dumbbell(sim, mbps(20), ms(40), qdisc=red)
    a = Connection(sim, path, "a", RenoCca())
    b = Connection(sim, path, "b", RenoCca())
    a.sender.set_infinite_backlog()
    b.sender.set_infinite_backlog()
    sim.run(until=30.0)
    got = sorted([a.receiver.received_bytes, b.receiver.received_bytes])
    assert got[1] / got[0] < 2.5  # random early drops de-synchronize

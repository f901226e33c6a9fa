"""Tests for the packet free-list pool (reuse must not leak state)."""

import repro.sim.packet as packet_mod
from repro.sim.packet import (Packet, PacketKind, make_ack, make_data,
                              pool_size, recycle)


def _drain_pool():
    packet_mod._FREE.clear()


def test_recycle_then_make_reuses_the_object():
    _drain_pool()
    p = make_data("f1", seq=0, payload=100)
    recycle(p)
    assert pool_size() == 1
    q = make_data("f2", seq=500, payload=200)
    assert q is p
    assert pool_size() == 0


def test_reuse_does_not_leak_header_fields():
    _drain_pool()
    p = make_data("f1", seq=0, payload=100, ecn_capable=True)
    # Dirty every mutable field a qdisc/endpoint can touch in flight.
    p.ecn_marked = True
    p.enqueue_time = 123.456
    p.sack_blocks = ((0, 100), (200, 300))
    p.sent_time = 9.0
    p.ack_of_sent_time = 8.5
    p.app_limited = True
    p.retransmit = True
    p.rwnd = 65535
    p.ecn_echo = True
    recycle(p)
    q = make_data("f2", seq=1000, payload=50)
    assert q is p
    assert not q.ecn_marked
    assert q.enqueue_time == 0.0
    assert q.sack_blocks == ()
    assert q.sent_time == 0.0
    assert q.ack_of_sent_time is None
    assert not q.app_limited
    assert not q.retransmit
    assert q.rwnd is None
    assert not q.ecn_echo
    assert not q.ecn_capable  # not inherited from the prior lifetime
    assert q.flow_id == "f2"
    assert q.user_id == "f2"
    assert q.seq == 1000
    assert q.end_seq == 1050


def test_reused_ack_resets_data_fields():
    _drain_pool()
    p = make_data("f1", seq=7000, payload=1448)
    recycle(p)
    a = make_ack("f1", ack=8448)
    assert a is p
    assert a.kind is PacketKind.ACK
    assert a.seq == 0
    assert a.end_seq == 0
    assert a.payload == 0
    assert a.ack == 8448


def test_double_recycle_is_a_noop():
    _drain_pool()
    p = make_data("f1", seq=0, payload=100)
    recycle(p)
    recycle(p)
    assert pool_size() == 1


def test_pooled_sentinel_and_fresh_ids():
    _drain_pool()
    p = make_data("f1", seq=0, payload=100)
    old_id = p.packet_id
    recycle(p)
    assert p.packet_id == 0  # pooled sentinel
    q = make_data("f1", seq=0, payload=100)
    assert q.packet_id != 0
    assert q.packet_id != old_id  # a reuse is a new wire lifetime


def test_pool_is_bounded():
    _drain_pool()
    packets = [Packet("f", PacketKind.DATA, 1500)
               for _ in range(packet_mod._POOL_LIMIT + 10)]
    for p in packets:
        recycle(p)
    assert pool_size() == packet_mod._POOL_LIMIT
    _drain_pool()


def test_simulation_consumption_recycles():
    # An end-to-end transfer recycles terminally-consumed packets: run
    # a short dumbbell scenario and observe the pool being fed.
    _drain_pool()
    from repro.qa.scenario import Scenario, run_scenario
    scenario = Scenario(family="probe", rate_mbps=10.0, rtt_ms=20.0,
                        qdisc="droptail", duration=2.0, seed=1,
                        cross_traffic="cbr")
    outcome = run_scenario(scenario, check_invariants=False)
    assert outcome.total_delivered > 0
    assert pool_size() > 0

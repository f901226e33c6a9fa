"""Unit tests for the DropTail FIFO qdisc."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.qdisc import DropTailQueue

from .helpers import make_data


def pkt(flow="f", size=1500):
    return make_data(flow, seq=0, payload=size - 52, size=size)


def test_fifo_order():
    q = DropTailQueue(limit_packets=10)
    first, second = pkt(), pkt()
    q.enqueue(first, 0.0)
    q.enqueue(second, 0.0)
    assert q.dequeue(0.0) is first
    assert q.dequeue(0.0) is second
    assert q.dequeue(0.0) is None


def test_packet_limit_tail_drops():
    q = DropTailQueue(limit_packets=2)
    assert q.enqueue(pkt(), 0.0)
    assert q.enqueue(pkt(), 0.0)
    assert not q.enqueue(pkt(), 0.0)
    assert q.drops == 1
    assert len(q) == 2


def test_requires_some_limit():
    # The packet limit is the only one, and it is required.
    with pytest.raises(TypeError):
        DropTailQueue()


def test_rejects_nonpositive_limits():
    with pytest.raises(ConfigError):
        DropTailQueue(limit_packets=0)
    with pytest.raises(TypeError):
        DropTailQueue(limit_bytes=3000)


def test_enqueue_stamps_time():
    q = DropTailQueue(limit_packets=5)
    p = pkt()
    q.enqueue(p, 3.25)
    assert p.enqueue_time == 3.25


def test_drop_observer_invoked():
    q = DropTailQueue(limit_packets=1)
    dropped = []
    q.on_drop = lambda packet, now: dropped.append((packet, now))
    q.enqueue(pkt(), 0.0)
    victim = pkt()
    q.enqueue(victim, 1.0)
    assert dropped == [(victim, 1.0)]


def test_counters():
    q = DropTailQueue(limit_packets=1)
    q.enqueue(pkt(size=1000), 0.0)
    q.enqueue(pkt(size=900), 0.0)
    assert q.enqueued == 1
    assert q.drops == 1
    assert q.dropped_bytes == 900


@given(st.lists(st.integers(min_value=64, max_value=9000), max_size=40))
def test_property_byte_accounting_consistent(sizes):
    q = DropTailQueue(limit_packets=20)
    expected = []
    for s in sizes:
        if q.enqueue(pkt(size=s), 0.0):
            expected.append(s)
    assert q.byte_length == sum(expected)
    drained = []
    while True:
        p = q.dequeue(0.0)
        if p is None:
            break
        drained.append(p.size)
    assert drained == expected
    assert q.byte_length == 0

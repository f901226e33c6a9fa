"""Unit tests for RED and CoDel active queue management."""

import pytest

from repro.errors import ConfigError
from repro.qdisc import CoDelQueue, RedQueue

from .helpers import make_data


def pkt(flow="f", size=1500, ecn=False):
    return make_data(flow, seq=0, payload=size - 52, size=size,
                     ecn_capable=ecn)


class TestRed:
    def test_below_min_thresh_no_drops(self):
        q = RedQueue(min_thresh=5, max_thresh=15, limit_packets=30)
        for _ in range(4):
            assert q.enqueue(pkt(), 0.0)
        assert q.drops == 0

    def test_sustained_overload_produces_early_drops(self):
        q = RedQueue(min_thresh=5, max_thresh=15, limit_packets=100,
                     seed=1)
        accepted = 0
        for _ in range(100):
            if q.enqueue(pkt(), 0.0):
                accepted += 1
        # Early (probabilistic) drops trigger before the 100-packet hard
        # limit is reached.
        assert q.drops > 0
        assert accepted < 100

    def test_hard_limit_always_drops(self):
        q = RedQueue(min_thresh=1, max_thresh=2, limit_packets=3, seed=2)
        for _ in range(10):
            q.enqueue(pkt(), 0.0)
        assert len(q) <= 3

    def test_average_decays_when_idle(self):
        q = RedQueue(min_thresh=2, max_thresh=6, limit_packets=20, seed=5)
        for _ in range(6):
            q.enqueue(pkt(), 0.0)
        while q.dequeue(0.0) is not None:
            pass
        avg_before = q._avg
        q.enqueue(pkt(), 10.0)  # long idle gap: one EWMA step toward 0
        assert q._avg == avg_before * (1.0 - RedQueue.weight)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            RedQueue(min_thresh=10, max_thresh=5, limit_packets=20)
        with pytest.raises(TypeError):
            RedQueue(min_thresh=1, max_thresh=5, limit_packets=20, max_p=0)

    def test_fifo_order_preserved(self):
        q = RedQueue(min_thresh=50, max_thresh=100, limit_packets=200)
        a, b = pkt(), pkt()
        q.enqueue(a, 0.0)
        q.enqueue(b, 0.0)
        assert q.dequeue(0.0) is a
        assert q.dequeue(0.0) is b


class TestCoDel:
    def test_low_delay_traffic_untouched(self):
        q = CoDelQueue(limit_packets=100)
        t = 0.0
        for _ in range(50):
            q.enqueue(pkt(), t)
            got = q.dequeue(t + 0.001)  # 1 ms sojourn, below target
            assert got is not None
            t += 0.002
        assert q.drops == 0

    def test_persistent_queue_triggers_drops(self):
        q = CoDelQueue(limit_packets=1000)
        # Fill a standing queue, then drain slowly so sojourn > target
        # for longer than interval.
        t = 0.0
        for _ in range(200):
            q.enqueue(pkt(), t)
            t += 0.001
        served = 0
        for i in range(150):
            if q.dequeue(t) is not None:
                served += 1
            t += 0.01
        assert q.drops > 0

    def test_hard_limit(self):
        q = CoDelQueue(limit_packets=5)
        for _ in range(10):
            q.enqueue(pkt(), 0.0)
        assert len(q) == 5
        assert q.drops == 5

    def test_invalid_params_rejected(self):
        # RFC 8289's 5 ms / 100 ms are the class's; they take no argument.
        assert (CoDelQueue.target, CoDelQueue.interval) == (0.005, 0.1)
        with pytest.raises(TypeError):
            CoDelQueue(target=0)

    def test_empty_dequeue_returns_none(self):
        q = CoDelQueue()
        assert q.dequeue(0.0) is None

    def test_byte_accounting(self):
        q = CoDelQueue(limit_packets=10)
        q.enqueue(pkt(size=1000), 0.0)
        q.enqueue(pkt(size=500), 0.0)
        assert q.byte_length == 1500
        q.dequeue(0.0)
        assert q.byte_length == 500

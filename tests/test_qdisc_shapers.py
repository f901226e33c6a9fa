"""Unit tests for the token-bucket filter, policer, and HTB."""

import pytest

from repro.errors import ConfigError
from repro.qdisc import (DropTailQueue, HtbClass, HtbQueue, Policer,
                         TokenBucketFilter)
from repro.units import mbps

from .helpers import make_data


def pkt(flow="f", size=1500, user=""):
    return make_data(flow, seq=0, payload=size - 52, size=size,
                     user_id=user)


class TestTokenBucketFilter:
    def test_initial_burst_passes_immediately(self):
        tbf = TokenBucketFilter(rate=mbps(10), burst=3 * 1514)
        for _ in range(3):
            tbf.enqueue(pkt(size=1514), 0.0)
        assert tbf.dequeue(0.0) is not None
        assert tbf.dequeue(0.0) is not None
        # Third 1514B packet needs 3*1514 tokens total; bucket had
        # exactly that, so it passes too.
        assert tbf.dequeue(0.0) is not None

    def test_gates_when_tokens_exhausted(self):
        tbf = TokenBucketFilter(rate=mbps(10), burst=1514)
        tbf.enqueue(pkt(size=1514), 0.0)
        tbf.enqueue(pkt(size=1514), 0.0)
        assert tbf.dequeue(0.0) is not None
        assert tbf.dequeue(0.0) is None  # out of tokens
        assert len(tbf) == 1

    def test_tokens_refill_over_time(self):
        rate = mbps(10)
        tbf = TokenBucketFilter(rate=rate, burst=1514)
        tbf.enqueue(pkt(size=1514), 0.0)
        tbf.enqueue(pkt(size=1514), 0.0)
        tbf.dequeue(0.0)
        assert tbf.dequeue(0.0) is None
        wait = 1514 / rate
        assert tbf.dequeue(wait + 1e-9) is not None

    def test_next_ready_time_predicts_refill(self):
        rate = mbps(10)
        tbf = TokenBucketFilter(rate=rate, burst=1514)
        tbf.enqueue(pkt(size=1514), 0.0)
        tbf.enqueue(pkt(size=1514), 0.0)
        tbf.dequeue(0.0)
        tbf.dequeue(0.0)  # stashes the head
        ready = tbf.next_ready_time(0.0)
        assert ready == pytest.approx(1514 / rate)
        assert tbf.dequeue(ready) is not None

    def test_empty_tbf_has_no_ready_time(self):
        tbf = TokenBucketFilter(rate=mbps(10), burst=1514)
        assert tbf.next_ready_time(0.0) is None
        assert tbf.dequeue(0.0) is None

    def test_long_term_rate_is_enforced(self):
        rate = mbps(8)
        tbf = TokenBucketFilter(rate=rate, burst=10 * 1514)
        t, sent = 0.0, 0
        # Offer far more than the rate for 2 seconds.
        while t < 2.0:
            tbf.enqueue(pkt(size=1514), t)
            p = tbf.dequeue(t)
            if p is not None:
                sent += p.size
            t += 0.0005
        # burst + 2s at rate, with ~1 MTU slack.
        assert sent <= 10 * 1514 + 2.0 * rate + 1514

    def test_burst_must_hold_an_mtu(self):
        with pytest.raises(ConfigError):
            TokenBucketFilter(rate=mbps(1), burst=100)

    def test_peak_rate_must_exceed_rate(self):
        # There is no peak-rate bucket: a burst drains at line rate.
        with pytest.raises(TypeError):
            TokenBucketFilter(rate=mbps(10), burst=15140, peak_rate=mbps(5))

    def test_child_overflow_counted_as_drop(self):
        tbf = TokenBucketFilter(rate=mbps(10), burst=1514,
                                child=DropTailQueue(limit_packets=1))
        assert tbf.enqueue(pkt(), 0.0)
        assert not tbf.enqueue(pkt(), 0.0)
        assert tbf.drops == 1


class TestPolicer:
    def test_conforming_traffic_passes(self):
        pol = Policer(rate=mbps(10), burst=5 * 1514)
        assert pol.enqueue(pkt(size=1514), 0.0)
        assert pol.dequeue(0.0) is not None

    def test_excess_traffic_dropped_not_queued(self):
        pol = Policer(rate=mbps(10), burst=1514)
        assert pol.enqueue(pkt(size=1514), 0.0)
        assert not pol.enqueue(pkt(size=1514), 0.0)
        assert pol.drops == 1
        assert len(pol) == 1  # only the conforming packet

    def test_tokens_recover(self):
        rate = mbps(10)
        pol = Policer(rate=rate, burst=1514)
        pol.enqueue(pkt(size=1514), 0.0)
        assert not pol.enqueue(pkt(size=1514), 0.0)
        assert pol.enqueue(pkt(size=1514), 1514 / rate + 1e-9)

    def test_long_term_rate(self):
        rate = mbps(4)
        pol = Policer(rate=rate, burst=3 * 1514)
        passed, t = 0, 0.0
        while t < 1.0:
            if pol.enqueue(pkt(size=1514), t):
                passed += 1514
                pol.dequeue(t)
            t += 0.001
        assert passed <= 3 * 1514 + rate * 1.0 + 1514


class TestHtb:
    def test_each_class_gets_assured_rate(self):
        alice = HtbClass("alice", rate=mbps(5), ceil=mbps(10))
        bob = HtbClass("bob", rate=mbps(5), ceil=mbps(10))
        htb = HtbQueue([alice, bob])
        for _ in range(20):
            htb.enqueue(pkt("a1", user="alice"), 0.0)
            htb.enqueue(pkt("b1", user="bob"), 0.0)
        # Drain at t=0: both classes have full burst buckets, service
        # should alternate between them.
        users = []
        for _ in range(10):
            p = htb.dequeue(0.0)
            assert p is not None
            users.append(p.user_id)
        assert users.count("alice") == 5
        assert users.count("bob") == 5

    def test_borrowing_up_to_ceiling(self):
        alice = HtbClass("alice", rate=mbps(2), ceil=mbps(10))
        bob = HtbClass("bob", rate=mbps(8), ceil=mbps(10))
        htb = HtbQueue([alice, bob])
        # Only alice has traffic: she may exceed her assured 2 Mbit/s by
        # borrowing, draining her ceil bucket.
        for _ in range(8):
            htb.enqueue(pkt("a", user="alice"), 0.0)
        served = 0
        while htb.dequeue(0.0) is not None:
            served += 1
        assert served >= 4  # burst-worth via assured + borrowed tokens

    def test_unknown_user_goes_to_default_class(self):
        only = HtbClass("default", rate=mbps(1), ceil=mbps(1))
        htb = HtbQueue([only])
        assert htb.enqueue(pkt("x", user="mystery"), 0.0)
        assert htb.dequeue(0.0) is not None

    def test_per_class_packet_limit(self):
        cls = HtbClass("c", rate=mbps(1), ceil=mbps(1))
        htb = HtbQueue([cls], limit_packets=2)
        assert htb.enqueue(pkt("f", user="c"), 0.0)
        assert htb.enqueue(pkt("f", user="c"), 0.0)
        assert not htb.enqueue(pkt("f", user="c"), 0.0)
        assert htb.drops == 1

    def test_invalid_class_config_rejected(self):
        with pytest.raises(ConfigError):
            HtbClass("bad", rate=mbps(10), ceil=mbps(5))
        with pytest.raises(ConfigError):
            HtbQueue([])

    def test_next_ready_time_when_tokens_exhausted(self):
        cls = HtbClass("c", rate=mbps(1), ceil=mbps(1))
        htb = HtbQueue([cls])
        # The 15140-byte burst covers ten MTUs; the eleventh waits.
        for _ in range(11):
            htb.enqueue(pkt("f", user="c", size=1514), 0.0)
        for _ in range(10):
            assert htb.dequeue(0.0) is not None
        assert htb.dequeue(0.0) is None
        ready = htb.next_ready_time(0.0)
        assert ready is not None
        assert htb.dequeue(ready + 1e-9) is not None

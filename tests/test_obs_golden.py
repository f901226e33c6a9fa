"""Golden-trace regression test.

A fixed Reno-vs-Reno dumbbell scenario is fully deterministic: same
topology, same flows, no randomness anywhere on the path.  The event
trace it produces is therefore a behavioural fingerprint of the whole
stack -- engine scheduling, qdisc admission, link serialization, loss
recovery.  This test pins the per-kind event counts and the final
metric snapshot; any change to simulation behaviour (intended or not)
shows up here as a diff of a dozen integers rather than a silently
shifted experiment result.

The digest aggregates by event *kind*, not by source: qdisc trace
names carry a process-global instance counter, so per-source keys
depend on how many qdiscs earlier tests created.
"""

from repro.cca import RenoCca
from repro.obs import capture
from repro.obs.metrics import REGISTRY
from repro.sim import Simulator, dumbbell
from repro.tcp import Connection
from repro.units import mbps, ms

#: Pinned digest for the scenario below.  If a deliberate behaviour
#: change moves these numbers, re-pin them in the same commit and say
#: why in the commit message.
#: ``enqueue``/``dequeue`` count the bottleneck's qdisc only: ACKs cross
#: a ``Wire``, which has no qdisc (8312/8286 with a reverse DropTail,
#: whose 4,134 ACKs each emitted both).  ``deliver`` counts both links.
GOLDEN_EVENT_COUNTS = {
    "cwnd": 3746,
    "deliver": 8285,
    "dequeue": 4152,
    "drop": 76,
    "enqueue": 4178,
    "loss": 10,
    "sim_run": 2,       # one run(): begin + end markers
    "sim_start": 1,
}

GOLDEN_METRICS = {
    "sim.clock_s": 5.0,
    "sim.events_processed": 8251.0,
    "sim.runs": 1.0,
}


def _run_scenario():
    REGISTRY.reset()
    with capture() as trace:
        sim = Simulator()
        path = dumbbell(sim, mbps(10), ms(40), buffer_multiplier=1.0)
        for i in range(2):
            conn = Connection(sim, path, f"reno-{i}", RenoCca())
            conn.sender.set_infinite_backlog()
        sim.run(until=5.0)
    snapshot = REGISTRY.snapshot()
    metrics = {name: entry["value"] for name, entry in snapshot.items()
               if entry["type"] != "histogram"}
    return trace.counts_by_kind(), metrics


def test_golden_trace_digest():
    counts, metrics = _run_scenario()
    assert counts == GOLDEN_EVENT_COUNTS
    assert metrics == GOLDEN_METRICS


def test_golden_trace_is_reproducible():
    # The digest must not depend on how often the scenario runs in one
    # process (stale state leaking between simulators would show here).
    assert _run_scenario() == _run_scenario()

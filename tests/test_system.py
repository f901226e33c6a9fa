"""What only real processes can show (``-m slow``; CI's ``system`` job).

Tier-1 holds the in-process half of every check here -- cache hits,
merged byte-identity, worker invariance, chunk-size invariance (the
gate map in TESTING.md, "System and paper-scale tiers", names each).
What is left needs an operating system: a ``repro serve`` subprocess
that gets a real SIGTERM or SIGKILL, memory read from a child's
``ru_maxrss``, and speed as a ratio of two runs on the same machine in
the same minute.  Ratios that need cores skip, naming their gate, on a
host without them.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cluster import run_clustered_campaign
from repro.core.campaign import Campaign
from repro.experiments import EXPERIMENTS
from repro.experiments.envelope import ENVELOPE_CELLS
from repro.qa.scenario import Scenario, run_scenario
from repro.serve import ServeClient, ServeError
from repro.store import ArtifactStore

from .helpers import submit_and_wait

pytestmark = pytest.mark.slow

SRC = str(Path(__file__).resolve().parent.parent / "src")
CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
SERVER_STARTUP_S = 30


@pytest.fixture
def spawn(tmp_path):
    """``spawn(name, *flags)`` starts a ``repro serve`` subprocess with
    its own store root and returns ``(process, client)`` once it
    answers ``/healthz``; whatever is still running is killed after
    the test."""
    procs = []

    def start(name, *flags):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--concurrency", "1", "--rate", "0", *flags],
            env=dict(os.environ, PYTHONPATH=SRC,
                     REPRO_STORE=str(tmp_path / f"node-{name}")),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        procs.append(proc)
        client = ServeClient(port=port, client_id="system-test",
                             timeout=10.0, connect_timeout=1.0)
        deadline = time.monotonic() + SERVER_STARTUP_S
        while time.monotonic() < deadline:
            try:
                if client.healthz()["status"] == "ok":
                    return proc, client
            except ServeError:
                time.sleep(0.2)
        pytest.fail(f"node {name} on :{port} never became healthy")

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.communicate(timeout=10)


# -- repro serve: SIGTERM drains ---------------------------------------------

def test_serve_subprocess_drains_cleanly_on_sigterm(spawn):
    proc, client = spawn("solo")
    done = submit_and_wait(
        client, "experiment", {"experiment": "fig2", "smoke": True},
        timeout=120)
    assert done["state"] == "done"
    assert done["summary"]["experiment"] == "fig2"

    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0, out
    assert "drained cleanly" in out


# -- repro run --smoke: every registered experiment --------------------------

@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_experiment_smoke_runs(name):
    """``SMOKE_PARAMS`` are parameters nothing else runs with (E6's
    left out vegas and raised KeyError for five PRs)."""
    child = subprocess.run(
        [sys.executable, "-m", "repro", "run", name, "--smoke",
         "--no-cache", "--json"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=1800)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["experiment"] == name


# -- repro cluster: subprocess nodes, SIGKILL, speedup -----------------------

#: Big enough that per-path simulation dominates HTTP dispatch
#: overhead (~1 s/path on a CI runner).
CLUSTER_PARAMS = {"n_paths": 16, "seed": 5, "duration": 2.0,
                  "backend": "packet"}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The serial run every clustered run must equal, and its store."""
    store = ArtifactStore(tmp_path_factory.mktemp("serial"))
    return store, Campaign(**CLUSTER_PARAMS).run(store=store, workers=1)


def clustered_run(local_root, clients):
    """One clustered campaign into a fresh local store, timed."""
    store = ArtifactStore(local_root)
    start = time.monotonic()
    result = run_clustered_campaign(
        CLUSTER_PARAMS, ",".join(f"127.0.0.1:{c.port}" for c in clients),
        store=store, workers=1)
    return store, result, time.monotonic() - start


def assert_equals_golden(store, result, golden):
    golden_store, golden_result = golden
    campaign = Campaign(**CLUSTER_PARAMS)
    for spec in campaign.specs:
        key = campaign.path_key(spec)
        assert store.get_bytes(key) == golden_store.get_bytes(key)
    assert result.fraction_contending == golden_result.fraction_contending
    assert [r.verdict for r in result.results] == \
        [r.verdict for r in golden_result.results]


def test_subprocess_nodes_merge_byte_identically_and_scale(
        spawn, tmp_path, golden):
    node = ("--job-workers", "1")
    proc_a, a = spawn("a", *node)
    store, result, t_one = clustered_run(tmp_path / "local-one", [a])
    assert_equals_golden(store, result, golden)
    proc_a.terminate()

    # Fresh nodes and a fresh local store: nothing answers from cache.
    (_, b), (_, c) = spawn("b", *node), spawn("c", *node)
    store, result, t_two = clustered_run(tmp_path / "local-two", [b, c])
    assert_equals_golden(store, result, golden)

    if CORES < 2:
        pytest.skip(f"2-node speedup >= 1.7x gate: {CORES} core, the "
                    "nodes share it (byte-identity above was checked)")
    assert t_one / t_two >= 1.7, (
        f"1 node {t_one:.1f}s, 2 nodes {t_two:.1f}s on {CORES} cores")


def test_sigkill_of_a_busy_node_still_merges_byte_identically(
        spawn, tmp_path, golden):
    node = ("--job-workers", "1")
    (_, survivor), (victim, doomed) = spawn("d", *node), spawn("e", *node)
    finished = threading.Event()

    def kill_when_busy():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not finished.is_set():
            try:
                if doomed.healthz().get("jobs", 0) >= 1:
                    victim.send_signal(signal.SIGKILL)
                    return
            except ServeError:
                pass
            time.sleep(0.05)

    watcher = threading.Thread(target=kill_when_busy, daemon=True)
    watcher.start()
    store, result, _ = clustered_run(tmp_path / "local-kill",
                                     [survivor, doomed])
    finished.set()
    watcher.join(timeout=5)
    assert not watcher.is_alive()
    assert victim.poll() not in (None, 0), "victim was not killed mid-run"
    assert_equals_golden(store, result, golden)


# -- Figure 2 at 100k and 1M flows: O(chunk) memory --------------------------

#: Materializing the population would need ~1 GiB at 100k flows and
#: ~10 GiB at 1M; one budget for both is the out-of-core claim.
RSS_BUDGET_MIB = 600

_RSS_CHILD = """
import json, resource, sys
from repro.ndt.stream import run_pipeline_streaming
result = run_pipeline_streaming(int(sys.argv[1]), seed=2023,
                                chunk_size=5000, store=None)
peak_kib = max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(json.dumps({"total": result.total, "shards": len(result.shards),
                  "fraction": result.fraction_possible_contention,
                  "peak_rss_mib": peak_kib / 1024.0}))
"""


@pytest.mark.parametrize("flows", [100_000, 1_000_000],
                         ids=["100k", "million"])
def test_fig2_peak_rss_under_budget(flows):
    """Peak RSS of the largest process of the run (the driver or one
    of its shard workers), read in a child so this suite's own
    footprint does not count."""
    start = time.monotonic()
    child = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, str(flows)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=2 * 3600)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    print(f"{flows} flows: {report}, {time.monotonic() - start:.0f}s wall")
    assert report["total"] == flows
    assert report["peak_rss_mib"] < RSS_BUDGET_MIB
    assert 0.02 < report["fraction"] < 0.25


# -- speed ratios, measured within one run -----------------------------------

def test_fluid_at_least_10x_cheaper_than_packet():
    """The heaviest elastic envelope cell (reno, 48 Mbit/s, 50 ms) on
    both backends: same verdict, a tenth of the CPU."""
    cross, rate, rtt, expected = max(
        (cell for cell in ENVELOPE_CELLS if cell[3]),
        key=lambda cell: cell[1] * cell[2])

    def run(backend):
        scenario = Scenario(family="probe", rate_mbps=rate, rtt_ms=rtt,
                            qdisc="droptail", duration=20.0, seed=1,
                            cross_traffic=cross, backend=backend)
        start = time.process_time()
        outcome = run_scenario(scenario, check_invariants=False)
        return (time.process_time() - start,
                bool(outcome.probe["contending"]))

    packet_s, packet_verdict = run("packet")
    fluid_s, fluid_verdict = min(run("fluid") for _ in range(3))
    assert packet_verdict == fluid_verdict == expected
    assert packet_s / fluid_s >= 10.0, (
        f"packet {packet_s:.2f}s vs fluid {fluid_s:.3f}s CPU")


def test_campaign_at_least_2x_faster_at_4_workers():
    if CORES < 4:
        pytest.skip(f"campaign >= 2x at 4 workers gate: {CORES} cores "
                    "(identity is tier-1: TestWorkloadDeterminism)")

    def timed(workers):
        start = time.perf_counter()
        result = Campaign(n_paths=48, seed=1,
                          duration=30.0).run(workers=workers)
        return time.perf_counter() - start, result

    serial_s, serial = timed(1)
    parallel_s, parallel = timed(4)
    assert serial.results == parallel.results
    assert serial.detector_quality() == parallel.detector_quality()
    assert serial_s / parallel_s >= 2.0, (
        f"serial {serial_s:.1f}s, 4 workers {parallel_s:.1f}s "
        f"on {CORES} cores")

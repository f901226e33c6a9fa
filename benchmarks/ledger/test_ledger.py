"""Tests of the ledger itself.

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Outside tier-1's ``testpaths`` on purpose: the smoke test runs all four
workloads end to end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import ledger  # noqa: E402
import run as runner  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# -- span arithmetic ---------------------------------------------------------


def _span(id, parent, layer, cpu, name="f"):
    span = spans.Span(id, parent, 0, name, layer, "MainThread")
    span.cpu = cpu
    return span


def test_self_time_subtracts_nested_and_sibling_children_once():
    tree = [
        _span(0, -1, "other", 10.0, name="thread:MainThread"),
        _span(1, 0, "core.campaign", 4.0),   # child A
        _span(2, 1, "fluid", 1.0),           # nested under A
        _span(3, 0, "store.artifacts", 3.0),  # sibling B
        _span(4, 0, "store.artifacts", 0.5),  # sibling C, same layer as B
    ]
    own = spans.self_times(tree)
    assert own == {0: 2.5, 1: 3.0, 2: 1.0, 3: 3.0, 4: 0.5}
    assert sum(own.values()) == pytest.approx(10.0)
    self_s, calls = spans.layer_totals(tree)
    assert self_s["other"] == 2.5
    assert self_s["core.campaign"] == 3.0
    assert self_s["fluid"] == 1.0
    assert self_s["store.artifacts"] == 3.5
    assert calls["store.artifacts"] == 2
    assert calls["other"] == 0  # a thread root is not a call
    assert set(self_s) == set(spans.LAYERS)


def test_ledger_asides_are_subtracted_but_never_reported():
    tree = [_span(0, -1, "other", 5.0, name="thread:MainThread"),
            _span(1, 0, spans.ASIDE, 2.0, name="calibrate")]
    self_s, calls = spans.layer_totals(tree)
    assert self_s["other"] == 3.0
    assert sum(self_s.values()) == 3.0
    assert sum(calls.values()) == 0


def test_profile_rollup_charges_builtins_to_the_repro_caller():
    link = ("/x/src/repro/sim/link.py", 10, "send")
    tcp = ("/x/src/repro/tcp/endpoint.py", 20, "on_ack")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    numpy = ("/site-packages/numpy/core/x.py", 5, "mean")
    reduce_ = ("~", 0, "<built-in method reduce>")
    table = {
        link: (10, 10, 1.0, 2.0, {}),
        tcp: (5, 5, 2.0, 4.0, {link: (5, 5, 2.0, 4.0)}),
        # append: 0.3 s under link, 0.1 s under tcp
        append: (40, 40, 0.4, 0.4, {link: (30, 30, 0.3, 0.3),
                                    tcp: (10, 10, 0.1, 0.1)}),
        # numpy.mean is only ever called by tcp; reduce only by numpy
        numpy: (2, 2, 0.5, 0.7, {tcp: (2, 2, 0.5, 0.7)}),
        reduce_: (2, 2, 0.2, 0.2, {numpy: (2, 2, 0.2, 0.2)}),
    }
    self_s, calls = spans.rollup_profile(table)
    assert self_s["sim.link"] == pytest.approx(1.0 + 0.3)
    assert self_s["tcp"] == pytest.approx(2.0 + 0.1 + 0.5 + 0.2)
    assert sum(self_s.values()) == pytest.approx(4.1)
    assert calls["sim.link"] == 10 and calls["tcp"] == 5


def test_counted_entry_points_are_read_from_the_profile_by_code_object():
    code = spans.entry("Link.send").__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    assert spans.layer_of_file(code.co_filename) == "sim.link"
    assert spans.profiled_calls({key: (7, 7, 0.1, 0.2, {})}, "Link.send") == 7
    assert spans.profiled_calls({}, "Link.send") == 0


def test_stale_program_names_fail_the_traced_run(monkeypatch):
    spans.check_names([])  # the tables match the program as it is
    monkeypatch.setattr(spans, "LAYER_BY_PATH",
                        spans.LAYER_BY_PATH + (("sim/gone.py", "sim.link"),))
    with pytest.raises(RuntimeError, match="sim/gone.py"):
        spans.check_names([])
    monkeypatch.undo()
    root = spans.Span(0, -1, -1, "thread:worker-0", "other", "worker-0")
    job = spans.Span(1, 0, 0, "execute_campaign", "serve.jobs", "worker-0")
    with pytest.raises(RuntimeError, match="execute_campaign"):
        spans.check_names([root, job])


def test_layer_of_file():
    assert spans.layer_of_file("/a/src/repro/ndt/synth.py") == "ndt.synth"
    assert spans.layer_of_file("/a/src/repro/ndt/filters.py") == "ndt.pipeline"
    assert spans.layer_of_file("/a/src/repro/units.py") == "other"
    assert spans.layer_of_file("/usr/lib/python3/json/encoder.py") is None


# -- statistics --------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(1, 201))) == (190, 95.0)
    assert stats.tail_percentile(list(range(1, 1001))) == (990, 99.0)
    assert stats.tail_percentile(list(range(1, 10001))) == (9990, 99.9)
    assert stats.tail_percentile(list(range(1, 101))) == (90, 90.0)
    assert stats.tail_percentile(list(range(1, 41))) == (30, 75.0)
    # Under twenty samples not even the median has ten beyond it.
    assert stats.tail_percentile(list(range(1, 17))) == (8, 50.0)


def test_quartiles_stay_inside_the_sample():
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    q1, q2, q3 = stats.quartiles([1.0, 2.0])
    assert (q1, q2, q3) == (1.0, 1.5, 2.0)
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.quartiles(values) == (1.5, 3.0, 4.5)
    assert stats.iqr_share(values) == pytest.approx(1.0)
    assert stats.spread(values) == pytest.approx(4.0 / 3.0)


@pytest.mark.parametrize("a, b, better, bound, expected", [
    ([100, 101, 99], [100.5, 101, 100], "lower", 0.10, "same"),
    ([100, 101, 99], [115, 116, 114], "lower", 0.10, "worse"),
    ([100, 101, 99], [80, 81, 79], "lower", 0.10, "better"),
    ([0.9, 0.9, 0.9], [0.8, 0.8, 0.8], "higher", 0.05, "worse"),
    ([0.9, 0.9, 0.9], [0.95, 0.95, 0.95], "higher", 0.10, "same"),
    # A's runs span 30% and overlap B's: the medians cannot be told apart.
    ([100, 130, 95], [118, 119, 120], "lower", 0.10, "unresolved"),
    # Just as noisy, but every run of B beats every run of A.
    ([100, 130, 95], [60, 61, 62], "lower", 0.10, "better"),
])
def test_compare_verdicts(a, b, better, bound, expected):
    assert stats.verdict(a, b, better, bound)["verdict"] == expected


def test_compare_flags_failed_operations_and_digest_changes():
    def document(cpu, failed, digest):
        metrics = {m["name"]: {"runs": [1.0, 1.0]}
                   for m in ledger.end_to_end()}
        metrics["cpu_ms_per_op"] = {"runs": cpu}
        return {"workloads": {"paths_packet": {
            "end_to_end": metrics, "failed_frac": failed,
            "result_digest": digest, "per_layer": {"tcp.self_s": 1.0}}}}
    a = document([10.0, 10.1], [0.0, 0.0], "aa")
    rows, notes = ledger.compare(a, a)
    assert {row["verdict"] for row in rows} == {"same"} and not notes
    b = document([10.0, 10.1], [0.0, 0.1], "bb")
    b["workloads"]["paths_packet"]["per_layer"]["tcp.self_s"] = 2.0
    rows, notes = ledger.compare(a, b)
    failed = [r for r in rows if r["metric"] == "failed_frac"]
    assert failed[0]["verdict"] == "worse"
    assert any("result_digest changed" in note for note in notes)
    assert any("tcp.self_s" in note for note in notes)
    assert not any("busy host" in note for note in notes)
    b["workloads"]["paths_packet"]["runs"] = [{"busy_host": True},
                                              {"busy_host": False}]
    _rows, notes = ledger.compare(a, b)
    assert any("1 of 2 runs of B on a busy host" in note for note in notes)


def test_traces_are_written_beside_the_set():
    assert ledger.trace_file_beside(Path("runs/BENCH_14.json")) == \
        Path("runs/trace_14.json")
    assert ledger.trace_file_beside(Path("x/quick.json")) == \
        Path("x/trace_quick.json")


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("name", runner.WORKLOAD_NAMES)
def test_inputs_are_byte_identical_per_seed_and_differ_across_seeds(name):
    cls = workloads.WORKLOADS[name]
    for size in ("full", "quick", "warm"):
        first = json.dumps(cls.make_inputs(7, size), sort_keys=True)
        again = json.dumps(cls.make_inputs(7, size), sort_keys=True)
        other = json.dumps(cls.make_inputs(8, size), sort_keys=True)
        assert first == again
        assert first != other


def test_workload_names_match_the_declaration():
    declared = runner.declaration()
    assert [w["name"] for w in declared["workloads"]] == \
        list(runner.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert declared["per_layer"] == worker.per_layer_declarations()
    assert {m["name"] for m in declared["end_to_end"]} == \
        {"cpu_ms_per_op", "peak_rss_mib", "setup_s", "accuracy"}


# -- wrappers ----------------------------------------------------------------


def test_wrappers_are_fully_removed_after_a_traced_pass(tmp_path):
    originals = {(ep.module, ep.attr): spans.resolve(ep.module, ep.attr)
                 for ep in spans.ENTRY_POINTS}
    cls = workloads.WORKLOADS["fig2_stream"]
    workload = cls(cls.make_inputs(3, "warm"), tmp_path)
    tracer = spans.Tracer()
    installed = spans.Installed(tracer)
    try:
        assert spans.leftover_wrappers()  # they really are in place
        cpus = os.sched_getaffinity(0)
        with worker.Host() as host:
            _timer, out = worker.run_pass(host, workload, tracer)
    finally:
        installed.remove()
    assert os.sched_getaffinity(0) == cpus  # pinned for the pass only
    assert out.failed == 0
    names = {s.name for s in tracer.spans}
    assert {"run_pipeline_streaming", "analyse_shard", "analyse_flow",
            "ArtifactStore.put", "thread:MainThread"} <= names
    shard_ops = {s.op for s in tracer.spans if s.name == "analyse_shard"}
    flow_ops = {s.op for s in tracer.spans if s.name == "analyse_flow"}
    assert -1 not in shard_ops and flow_ops == shard_ops
    assert spans.leftover_wrappers() == []
    for (module, attr), original in originals.items():
        assert spans.resolve(module, attr) is original


# -- end to end --------------------------------------------------------------


def test_quick_set_prints_every_declared_metric(tmp_path):
    out = tmp_path / "BENCH_quick.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "ledger.py"), "run", "--quick",
         "--runs", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60, f"quick set took {elapsed:.0f} s"
    declared = runner.declaration()
    for name in runner.WORKLOAD_NAMES:
        assert name in done.stdout
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert metric["name"] in done.stdout, metric["name"]
    assert "failed_frac" in done.stdout and "result_digest" in done.stdout
    document = json.loads(out.read_text())
    for name, entry in document["workloads"].items():
        assert entry["digest_stable"], name
        assert entry["failed_frac"] == [0.0], name
        layer = entry["per_layer"]
        assert layer["quality.digest_stable"] == 1
        assert layer["trace.coverage_ratio"] >= 0.9, (name, layer)
        assert set(layer) == {m["name"] for m in declared["per_layer"]}
    traces = json.loads((tmp_path / "trace_quick.json").read_text())
    assert set(traces["workloads"]) == set(runner.WORKLOAD_NAMES)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the ledger, the
    command exits non-zero and prints no result."""
    target = tmp_path / "benchmarks" / "ledger"
    target.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (target / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload",
         "paths_packet", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout

#!/usr/bin/env python3
"""The perf ledger: run sets, compare them, check the ledger itself.

    python3 benchmarks/ledger/ledger.py run --out benchmarks/ledger/runs/BENCH_14.json
    python3 benchmarks/ledger/ledger.py compare A.json B.json
    python3 benchmarks/ledger/ledger.py selfcheck
    python3 benchmarks/ledger/ledger.py noise
    python3 benchmarks/ledger/ledger.py steady

``run`` makes ``--runs`` runs of every workload (``run.py``, one fresh
process each), round-robin so that host drift spreads evenly, then one
traced run per workload, and prints every declared metric by name with
unit and bound; with ``--out BENCH_<n>.json`` it writes the set there
and the span traces beside it as ``trace_<n>.json``.  ``compare``
applies the bounds in ``BENCHMARK.json`` to two result files.
``selfcheck`` is ``run`` twice on the same code followed by
``compare``; it fails unless every row reads ``same``.  ``noise``
repeats a quick set beside busy processes pinned to each core and
fails unless CPU time holds its bound while wall clock does not.
``steady`` runs every workload on ten seeds and fails unless, for every
metric, the distance between the quartiles is under a third of its
bound as a share of the median -- the spread the driver gates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as runner
import stats

#: ``--quick``: the small inputs, a few seconds per run, two runs.
QUICK = {"size": "quick", "seconds": 2.0, "runs": 2}
FULL = {"size": "full", "seconds": 20.0, "runs": 3}

#: Seeds ``steady`` runs, the number the driver's acceptance check uses.
STEADY_SEEDS = 10

#: A run whose median reference-loop slowdown is above this is flagged:
#: its timings carry the residual host-state bias the README states.
BUSY_HOST = 1.15


def end_to_end() -> list[dict]:
    return runner.declaration()["end_to_end"]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def run_set(seed: int, settings: dict, trace: bool = True,
            trace_out: Path | None = None, log=print) -> dict:
    """``settings["runs"]`` runs of each workload, round-robin, then a
    traced run of each; returns the result document."""
    started = time.time()
    names = runner.WORKLOAD_NAMES
    runs = {name: [] for name in names}
    for index in range(settings["runs"]):
        for name in names:
            result = runner.run_once(name, seed, settings["seconds"],
                                     trace=False, size=settings["size"])
            runs[name].append(result)
            log(f"  run {index + 1}/{settings['runs']} {name}: "
                f"{result['metrics']['cpu_ms_per_op']:.3f} ms/op, "
                f"{result['passes']} passes, host slowdown "
                f"{result['info']['host_slowdown']:.2f}")
    document = {
        "schema": "ledger/1", "seed": seed, "size": settings["size"],
        "seconds": settings["seconds"], "runs": settings["runs"],
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "end_to_end": end_to_end(), "workloads": {},
    }
    traces = {}
    for name in names:
        rows = runs[name]
        entry = {"end_to_end": {}, "runs": []}
        for metric in end_to_end():
            values = [r["metrics"][metric["name"]] for r in rows]
            q1, med, q3 = stats.quartiles(values)
            entry["end_to_end"][metric["name"]] = {
                "runs": values, "median": med, "q1": q1, "q3": q3,
                "spread": stats.spread(values)}
        for r in rows:
            entry["runs"].append({
                "passes": r["passes"], "ops_per_pass": r["ops_per_pass"],
                "attempted": r["attempted"], "failed": r["failed"],
                "matches": r["matches"], "correct": runner.is_correct(r),
                "result_digest": r["result_digest"],
                "digest_stable": r["digest_stable"],
                "busy_host": r["info"]["host_slowdown"] > BUSY_HOST,
                "info": r["info"], "segments": r["segments"]})
        entry["failed_frac"] = [r["failed"] / max(1, r["attempted"])
                                for r in rows]
        digests = {r["result_digest"] for r in rows}
        entry["result_digest"] = rows[0]["result_digest"]
        entry["digest_stable"] = (len(digests) == 1 and
                                  all(r["digest_stable"] for r in rows))
        if trace:
            trace_file = runner.OUT / f"trace_{name}_{seed}.json"
            traced = runner.run_once(name, seed, settings["seconds"],
                                     trace=True, size=settings["size"],
                                     trace_out=trace_file)
            entry["per_layer"] = traced["metrics"]
            entry["digest_stable"] = (
                entry["digest_stable"] and traced["digest_stable"]
                and traced["result_digest"] == entry["result_digest"])
            with open(trace_file) as f:
                traces[name] = json.load(f)
            trace_file.unlink()
            log(f"  traced {name}: coverage "
                f"{traced['metrics']['trace.coverage_ratio']:.3f}, overhead "
                f"{traced['metrics']['trace.overhead_ratio']:.3f}")
        document["workloads"][name] = entry
    document["elapsed_s"] = round(time.time() - started, 1)
    if trace and trace_out is not None:
        write_json(trace_out, {"schema": "ledger-traces/1", "seed": seed,
                               "workloads": traces}, compact=True)
    return document


def busy_runs(document: dict) -> dict[str, int]:
    """Runs per workload taken on a busy host (see :data:`BUSY_HOST`)."""
    return {name: sum(r.get("busy_host", False) for r in entry["runs"])
            for name, entry in document["workloads"].items()
            if "runs" in entry}


def write_json(path: Path, document: dict, compact: bool = False) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        if compact:
            json.dump(document, f, separators=(",", ":"))
        else:
            json.dump(document, f, indent=1)
        f.write("\n")


def print_set(document: dict) -> None:
    """Every declared metric by name, with unit and bound."""
    print(f"\nseed {document['seed']}, {document['runs']} runs of "
          f"{document['seconds']:g} s, {document['size']} inputs")
    for name, entry in document["workloads"].items():
        passes = [r["passes"] for r in entry["runs"]]
        print(f"\n{name}  (passes per run {passes}, result_digest "
              f"{entry['result_digest'][:16]}, digest stable: "
              f"{entry['digest_stable']})")
        slowdowns = " ".join(
            f"{r['info']['host_slowdown']:.2f}"
            + ("(busy)" if r["busy_host"] else "") for r in entry["runs"])
        print(f"  host slowdown per run: {slowdowns}")
        print(f"  {'metric':<16}{'median':>12} {'unit':<6}{'q1':>12}"
              f"{'q3':>12}{'spread':>8}{'bound':>7}  better")
        for metric in document["end_to_end"]:
            row = entry["end_to_end"][metric["name"]]
            print(f"  {metric['name']:<16}{row['median']:>12.4f} "
                  f"{metric['unit']:<6}{row['q1']:>12.4f}{row['q3']:>12.4f}"
                  f"{row['spread']:>8.3f}{metric['bound']:>7.2f}  "
                  f"{metric['better']}")
        print(f"  {'failed_frac':<16}"
              f"{statistics.median(entry['failed_frac']):>12.4f} ratio "
              f"(exact)")
        layer = entry.get("per_layer")
        if layer:
            units = {m["name"]: m["unit"]
                     for m in runner.declaration()["per_layer"]}
            shown = [f"{key}={value:.6g} {units.get(key, '')}"
                     for key, value in layer.items() if value]
            print("  per layer (traced run):")
            for start in range(0, len(shown), 3):
                print("    " + "   ".join(shown[start:start + 3]))
            zero = [key for key, value in layer.items() if not value]
            print("    reads 0 (layer not entered): " + " ".join(zero))


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare(a: dict, b: dict) -> tuple[list[dict], list[str]]:
    """One row per (workload, end-to-end metric) plus informational
    notes (per-layer changes, digest changes)."""
    rows, notes = [], []
    for label, document in (("A", a), ("B", b)):
        for name, count in busy_runs(document).items():
            if count:
                notes.append(
                    f"{name}: {count} of "
                    f"{len(document['workloads'][name]['runs'])} runs of "
                    f"{label} on a busy host (slowdown > {BUSY_HOST}); "
                    f"timings carry the residual bias the README states")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            notes.append(f"{name}: missing from B")
            continue
        for metric in end_to_end():
            row = stats.verdict(
                entry_a["end_to_end"][metric["name"]]["runs"],
                entry_b["end_to_end"][metric["name"]]["runs"],
                metric["better"], metric["bound"])
            row.update(workload=name, metric=metric["name"],
                       unit=metric["unit"])
            rows.append(row)
        failed_a = statistics.median(entry_a["failed_frac"])
        failed_b = statistics.median(entry_b["failed_frac"])
        rows.append({"workload": name, "metric": "failed_frac",
                     "unit": "ratio", "a": failed_a, "b": failed_b,
                     "change": failed_b - failed_a, "bound": 0.0,
                     "spread_a": 0.0, "spread_b": 0.0,
                     "verdict": "worse" if failed_b > failed_a else "same"})
        if entry_a["result_digest"] != entry_b["result_digest"]:
            notes.append(f"{name}: result_digest changed "
                         f"{entry_a['result_digest'][:12]} -> "
                         f"{entry_b['result_digest'][:12]}")
        layer_a = entry_a.get("per_layer", {})
        layer_b = entry_b.get("per_layer", {})
        for key in layer_a:
            va, vb = layer_a[key], layer_b.get(key)
            if vb is None or va == vb or key.startswith("host."):
                continue
            if va and abs(vb - va) / abs(va) < 0.05:
                continue
            notes.append(f"{name}: {key} {va:.6g} -> {vb:.6g}")
    return rows, notes


def print_compare(rows, notes) -> None:
    print(f"{'workload':<16}{'metric':<16}{'A':>12}{'B':>12}{'change':>9}"
          f"{'bound':>7}{'spread A/B':>14}  verdict")
    for row in rows:
        print(f"{row['workload']:<16}{row['metric']:<16}{row['a']:>12.4f}"
              f"{row['b']:>12.4f}{row['change']:>+9.3f}{row['bound']:>7.2f}"
              f"{row['spread_a']:>7.3f}{row['spread_b']:>7.3f}  "
              f"{row['verdict']}")
    if notes:
        print("\nfor information (no bound applies):")
        for note in notes:
            print(f"  {note}")


def load(path) -> dict:
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def settings_of(args) -> dict:
    settings = dict(QUICK if args.quick else FULL)
    if args.runs is not None:
        settings["runs"] = args.runs
    if args.seconds is not None:
        settings["seconds"] = args.seconds
    return settings


def trace_file_beside(out: Path) -> Path:
    """``BENCH_<n>.json`` -> ``trace_<n>.json`` in the same directory."""
    return out.with_name("trace_" + out.name.removeprefix("BENCH_"))


def cmd_run(args) -> int:
    out = Path(args.out) if args.out else None
    document = run_set(args.seed, settings_of(args),
                       trace_out=trace_file_beside(out) if out else None)
    print_set(document)
    if out:
        write_json(out, document)
        print(f"\nwrote {out} and {trace_file_beside(out)}")
    healthy = all(not any(e["failed_frac"]) and e["digest_stable"]
                  for e in document["workloads"].values())
    return 0 if healthy else 1


def cmd_compare(args) -> int:
    rows, notes = compare(load(args.a), load(args.b))
    print_compare(rows, notes)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def cmd_selfcheck(args) -> int:
    settings = settings_of(args)
    sets = []
    for label in ("A", "B"):
        print(f"set {label}:")
        sets.append(run_set(args.seed, settings, trace=False))
        if args.out:
            out = Path(args.out)
            write_json(out.with_name(f"{out.stem}_{label}.json"), sets[-1])
    rows, notes = compare(*sets)
    print_compare(rows, notes)
    agree = all(row["verdict"] == "same" for row in rows) and not any(
        "digest" in note for note in notes)
    print("selfcheck:", "ok" if agree else "FAILED")
    return 0 if agree else 1


#: A busy neighbour, pinned to one core so the scheduler cannot move it
#: out of the ledger's way -- and two of them per core: beside one, the
#: serve workload (which sleeps on sockets and is favoured when it
#: wakes) slowed by 25% in wall clock, exactly the bound it should be
#: shown to leave.
_NEIGHBOUR = "import os\nos.sched_setaffinity(0, {%d})\nwhile True: pass"
NEIGHBOURS_PER_CORE = 2


def cmd_noise(args) -> int:
    """A quick set alone, then beside busy loops pinned to every core:
    CPU time per operation must hold its bound while wall clock does
    not."""
    settings = settings_of(args)
    print("alone:")
    alone = run_set(args.seed, settings, trace=False)
    neighbours = [subprocess.Popen([sys.executable, "-c", _NEIGHBOUR % cpu])
                  for cpu in sorted(os.sched_getaffinity(0))
                  for _ in range(NEIGHBOURS_PER_CORE)]
    try:
        print(f"beside {len(neighbours)} busy processes:")
        busy = run_set(args.seed, settings, trace=False)
    finally:
        for proc in neighbours:
            proc.kill()
        for proc in neighbours:
            proc.wait()
    rows, _notes = compare(alone, busy)
    print_compare(rows, [])
    bound = next(m["bound"] for m in end_to_end()
                 if m["name"] == "cpu_ms_per_op")
    wall = {}
    for name in runner.WORKLOAD_NAMES:
        def wall_of(doc):
            return statistics.median(
                r["info"]["wall_ms_per_op"]
                for r in doc["workloads"][name]["runs"])
        wall[name] = {"alone": wall_of(alone), "busy": wall_of(busy)}
        wall[name]["change"] = wall[name]["busy"] / wall[name]["alone"] - 1
        print(f"{name:<16}wall_ms_per_op {wall[name]['alone']:>10.3f} -> "
              f"{wall[name]['busy']:>10.3f} ({wall[name]['change']:+.2f})")
    cpu_rows = [r for r in rows if r["metric"] == "cpu_ms_per_op"]
    cpu_holds = all(abs(r["change"]) <= bound for r in cpu_rows)
    wall_moves = all(w["change"] > bound for w in wall.values())
    print(f"cpu_ms_per_op within {bound:.2f} on every workload: {cpu_holds}; "
          f"wall clock beyond it on every workload: {wall_moves}")
    if args.out:
        write_json(args.out, {
            "schema": "ledger-noise/1", "alone": alone, "busy": busy,
            "compare": rows, "wall_ms_per_op": wall,
            "cpu_holds": cpu_holds, "wall_moves": wall_moves})
    return 0 if cpu_holds and wall_moves else 1


def cmd_steady(args) -> int:
    """One run per seed; every spread must stay under a third of its
    bound."""
    settings = settings_of(args)
    names = runner.WORKLOAD_NAMES
    values = {name: {m["name"]: [] for m in end_to_end()} for name in names}
    slowdowns = {name: [] for name in names}
    for seed in range(args.seed, args.seed + STEADY_SEEDS):
        for name in names:
            result = runner.run_once(name, seed, settings["seconds"],
                                     trace=False, size=settings["size"])
            for metric, value in result["metrics"].items():
                values[name][metric].append(value)
            slowdowns[name].append(result["info"]["host_slowdown"])
            print(f"  seed {seed} {name}: " + "  ".join(
                f"{k}={v:.4f}" for k, v in result["metrics"].items())
                + f"  host_slowdown={slowdowns[name][-1]:.2f}")
    steady = True
    rows = []
    print(f"\n{'workload':<16}{'metric':<16}{'median':>12}{'iqr/median':>12}"
          f"{'bound':>7}  under a third")
    for name in names:
        for metric in end_to_end():
            runs = values[name][metric["name"]]
            share = stats.iqr_share(runs)
            under = share <= metric["bound"] / 3
            steady = steady and under
            rows.append({"workload": name, "metric": metric["name"],
                         "runs": runs, "median": statistics.median(runs),
                         "iqr_share": share, "bound": metric["bound"],
                         "under_a_third": under})
            print(f"{name:<16}{metric['name']:<16}"
                  f"{statistics.median(runs):>12.4f}{share:>12.4f}"
                  f"{metric['bound']:>7.2f}  {under}")
    if args.out:
        write_json(args.out, {"schema": "ledger-steady/1",
                              "first_seed": args.seed,
                              "seeds": STEADY_SEEDS, "rows": rows,
                              "host_slowdown": slowdowns, "steady": steady})
    return 0 if steady else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def run_options(p, out_help, runs=True):
        p.add_argument("--seed", type=int, default=1)
        if runs:
            p.add_argument("--runs", type=int, default=None,
                           help="runs per workload (default 3; 2 with "
                                "--quick)")
        p.add_argument("--seconds", type=float, default=None,
                       help="measured seconds per run (default 20; 2 "
                            "with --quick)")
        p.add_argument("--quick", action="store_true",
                       help="small inputs and short runs (smoke, noise)")
        p.add_argument("--out", default="", help=out_help)

    p = sub.add_parser("run", help="run a set and print every metric")
    run_options(p, "write the set here (BENCH_<n>.json) and the span "
                   "traces beside it (trace_<n>.json)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="compare two sets")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("selfcheck", help="two sets of the same code")
    run_options(p, "write the two sets to <out stem>_A.json and _B.json")
    p.set_defaults(fn=cmd_selfcheck)

    p = sub.add_parser("noise", help="a set alone and beside neighbours")
    run_options(p, "write both sets and the comparison here")
    p.set_defaults(fn=cmd_noise, quick=True)

    p = sub.add_parser("steady", help="spread of every metric over ten seeds")
    run_options(p, "write every run and the spreads here", runs=False)
    p.set_defaults(fn=cmd_steady, runs=None)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

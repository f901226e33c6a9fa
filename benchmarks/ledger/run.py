#!/usr/bin/env python3
"""One run of one ledger workload -- the command ``BENCHMARK.json`` names.

    python3 benchmarks/ledger/run.py --workload paths_packet --seed 1 \\
        --seconds 20 --trace 0

A run starts fresh interpreters (``worker.py``) so that set-up is paid
and measured every time: with ``--trace 0`` six set-up-only processes
and then the measuring process, whose own set-up is the seventh sample
of ``setup_s``; with ``--trace 1`` one traced process that reports the
per-layer metrics.  The last line of standard output is the result:

    {"correct": true, "attempted": 70, "failed": 0, "metrics": {...}}

This file imports nothing from the program; it only builds it (byte
compilation, once per checkout) and starts the workers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
OUT = HERE / "out"

#: Set-up samples per run (the measuring process's own set-up included),
#: by input size.
SETUPS = {"full": 7, "quick": 2}
WORKER_TIMEOUT_S = 170

WORKLOAD_NAMES = ("paths_packet", "campaign_fluid", "fig2_stream",
                  "serve_mixed")

#: The share of operations that must agree with ground truth for a run
#: to count as correct.  Detector accuracy on simulated paths and
#: synthetic flows is a measured property (the ``accuracy`` metric); a
#: served summary differing from the direct call is a defect.
ACCURACY_FLOOR = {"serve_mixed": 1.0}


def declaration() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build() -> None:
    """Byte-compile the program and the ledger once per checkout, so the
    first run's set-up time is not a compile."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure under {SOURCE}")
    if (SOURCE / "repro" / "__pycache__").is_dir():
        return
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(SOURCE / "repro"), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL)


def worker_env() -> dict:
    """The workers' environment: the program on the path, none of its
    ambient switches (cache, worker count, fault injection), and a
    fixed hash seed so set and dict layouts repeat."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                         else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(mode: str, workload: str, seed: int, scratch: Path,
                 extra=()) -> dict:
    """Run ``worker.py`` to completion; returns its result object."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--mode", mode, "--scratch", str(scratch), *extra]
    done = subprocess.run(command, env=worker_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"error: worker ({mode}) exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             size: str = "full", trace_out: Path | None = None) -> dict:
    """One run; returns the worker's full result with ``setup_s``
    replaced by the fastest of ``SETUPS[size]`` fresh processes: half
    of a set-up runs before the reference loop can bracket it, and to
    that half host noise only ever adds.  A traced run writes its span
    trace to ``trace_out`` when given one."""
    build()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    extra = ["--size", size]
    try:
        if trace:
            if trace_out is not None:
                extra += ["--trace-out", str(trace_out)]
            return start_worker("trace", workload, seed, scratch, extra)
        samples = [start_worker("setup", workload, seed, scratch, extra)
                   ["metrics"]["setup_s"] for _ in range(SETUPS[size] - 1)]
        result = start_worker("measure", workload, seed, scratch,
                              extra + ["--seconds", str(seconds)])
        samples.append(result["metrics"]["setup_s"])
        result["info"]["setup_samples_s"] = samples
        result["metrics"]["setup_s"] = min(samples)
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def is_correct(result: dict) -> bool:
    accuracy = result["matches"] / max(1, result["attempted"])
    return (result["failed"] == 0 and result["digest_stable"]
            and accuracy >= ACCURACY_FLOOR.get(result["workload"], 0.0))


def contract_line(result: dict, trace: bool) -> dict:
    """The object the driver reads: declared metrics only, with units."""
    declared = declaration()["per_layer" if trace else "end_to_end"]
    return {
        "correct": is_correct(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    for error in result["errors"]:
        print(f"failed operation: {error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} passes={result['passes']} "
          f"ops/pass={result['ops_per_pass']} "
          f"result_digest={result['result_digest'][:16]}")
    print(json.dumps(contract_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

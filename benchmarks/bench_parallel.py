"""Benchmark P4: the parallel execution layer (serial vs parallel).

Measures wall-clock for the paper-scale fan-out -- the E7 campaign
(one 30 s probe simulation per path) -- serially and with a worker
pool, recording the speedup so the perf trajectory is tracked across
PRs.  (The ledger's ``fig2_stream`` workload times the Figure 2
pipeline; its worker invariance is asserted below.)

One invariant is asserted regardless of machine size: parallel results
are **bit-for-bit identical** to serial results (each task carries its
own seed; results reassemble in submission order).

The >= 2x speedup assertion only applies on machines with >= 4 CPUs;
single-core CI boxes still verify determinism and record the numbers.
"""

import os
import time

from repro.core.campaign import Campaign
from repro.experiments import campaign_eval, fig2

from conftest import once

PARALLEL_WORKERS = 4
#: Speedup asserted at PARALLEL_WORKERS on machines with >= 4 CPUs.
MIN_SPEEDUP = 2.0


def _multicore() -> bool:
    return (os.cpu_count() or 1) >= 4


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def test_campaign_parallel_speedup_and_identity(benchmark, bench_scale):
    if bench_scale == "full":
        n_paths, duration = 48, 30.0
    else:
        n_paths, duration = 6, 5.0

    def both():
        wall_serial, serial = _timed(
            lambda: Campaign(n_paths=n_paths, seed=1,
                             duration=duration).run(workers=1))
        wall_par, parallel = _timed(
            lambda: Campaign(n_paths=n_paths, seed=1,
                             duration=duration)
            .run(workers=PARALLEL_WORKERS))
        return wall_serial, serial, wall_par, parallel

    wall_serial, serial, wall_par, parallel = once(benchmark, both)
    speedup = wall_serial / wall_par
    benchmark.extra_info["wall_serial_s"] = round(wall_serial, 3)
    benchmark.extra_info["wall_parallel_s"] = round(wall_par, 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    print(f"\ncampaign {n_paths} paths: serial {wall_serial:.1f}s, "
          f"x{PARALLEL_WORKERS} {wall_par:.1f}s "
          f"(speedup {speedup:.2f})")

    # Determinism contract: bit-for-bit identical per-path results.
    assert serial.results == parallel.results
    assert serial.detector_quality() == parallel.detector_quality()
    if _multicore():
        assert speedup >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x at {PARALLEL_WORKERS} workers "
            f"on {os.cpu_count()} CPUs, got {speedup:.2f}x")


def test_experiment_metrics_identical_across_workers(benchmark,
                                                     bench_scale):
    """The experiment-level metrics dicts (what EXPERIMENTS.md keys
    on) are bit-for-bit identical between serial and parallel runs."""
    if bench_scale == "full":
        n_paths, duration, n_flows = 12, 15.0, 2_000
    else:
        n_paths, duration, n_flows = 4, 5.0, 400

    def run_all():
        serial_c = campaign_eval.run(n_paths=n_paths, duration=duration,
                                     seed=1, workers=1)
        parallel_c = campaign_eval.run(n_paths=n_paths,
                                       duration=duration, seed=1,
                                       workers=PARALLEL_WORKERS)
        serial_f = fig2.run(n_flows=n_flows, seed=2023, workers=1)
        parallel_f = fig2.run(n_flows=n_flows, seed=2023,
                              workers=PARALLEL_WORKERS)
        return serial_c, parallel_c, serial_f, parallel_f

    serial_c, parallel_c, serial_f, parallel_f = once(benchmark, run_all)
    assert serial_c.metrics == parallel_c.metrics
    assert serial_c.tables == parallel_c.tables
    assert serial_f.metrics == parallel_f.metrics
    assert serial_f.tables == parallel_f.tables

"""Tests for the parallel execution layer (`repro.runtime`).

Covers the pool mechanics (ordering, chunking, progress, fallbacks,
error propagation) and the determinism contract on the real workloads:
``Campaign.run`` and ``sweep`` must produce bit-for-bit
identical results for any worker count and across repeated runs.
"""

import os
import pickle

import pytest

from repro.errors import ConfigError
from repro.runtime import (DEFAULT_WORKERS_ENV, FaultPolicy,
                           ParallelExecutor, derive_seed, parallel_map,
                           resolve_workers)
from repro.runtime.pool import _IN_WORKER_ENV, _auto_chunk_size


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"boom on {x}")


def square_unless_worker_dies(x):
    """Kill the pool worker that draws item 3; square anywhere else."""
    if x == 3 and os.environ.get(_IN_WORKER_ENV) == "1":
        os._exit(1)
    return x * x


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_var_used(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_WORKERS_ENV, raising=False)
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_clamped_to_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_WORKERS_ENV, "lots")
        with pytest.raises(ConfigError):
            resolve_workers(None)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)

    def test_distinct_per_index_and_base(self):
        seeds = {derive_seed(base, i)
                 for base in range(3) for i in range(50)}
        assert len(seeds) == 150

    def test_in_numpy_seed_range(self):
        assert 0 <= derive_seed(12345, 999) < 2**63


class TestChunking:
    def test_auto_chunk_small_workloads_stay_fine_grained(self):
        assert _auto_chunk_size(48, 4) == 1

    def test_auto_chunk_large_workloads_amortize(self):
        assert _auto_chunk_size(10_000, 4) == 312

    def test_chunks_cover_items_in_order(self):
        # Even, ragged, one-item and larger-than-the-input chunks.
        for size in (1, 3, 4, 40):
            assert parallel_map(square, range(10), workers=2,
                                chunk_size=size) \
                == [x * x for x in range(10)]

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigError):
            ParallelExecutor(workers=2, chunk_size=0)


class TestParallelMapSerial:
    def test_results_in_order(self):
        assert parallel_map(square, range(8), workers=1) \
            == [x * x for x in range(8)]

    def test_empty_items(self):
        assert parallel_map(square, [], workers=1) == []

    def test_progress_reports_completions(self):
        seen = []
        parallel_map(square, range(3), workers=1,
                     progress=lambda done, n: seen.append((done, n)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_exception_propagates(self):
        with pytest.raises(ValueError, match="boom on 0"):
            parallel_map(boom, range(4), workers=1)


class TestParallelMapPool:
    def test_results_in_order(self):
        assert parallel_map(square, range(40), workers=2, chunk_size=3) \
            == [x * x for x in range(40)]

    def test_progress_counts_all_items(self):
        seen = []
        parallel_map(square, range(10), workers=2, chunk_size=4,
                     progress=lambda done, n: seen.append((done, n)))
        assert seen[-1] == (10, 10)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_exception_propagates(self):
        # Chunks are collected in order, so the lowest failing index
        # surfaces whether or not progress is reported.
        for progress in (None, lambda done, n: None):
            with pytest.raises(ValueError, match="^boom on 0$"):
                parallel_map(boom, range(4), workers=2, chunk_size=1,
                             progress=progress)

    def test_worker_death_recomputes_unfinished_chunks(self):
        serial = [x * x for x in range(8)]
        with ParallelExecutor(workers=2, chunk_size=1) as ex:
            assert ex.map(square_unless_worker_dies, range(8)) == serial
        with ParallelExecutor(workers=2, chunk_size=1) as ex:
            outcomes = sorted(ex.imap_tasks(square_unless_worker_dies,
                                            range(8),
                                            policy=FaultPolicy(retries=0)),
                              key=lambda o: o.index)
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == serial

    def test_unpicklable_fn_falls_back_to_serial(self):
        calls = []

        def closure(x):  # not picklable: local function
            calls.append(x)
            return -x

        assert parallel_map(closure, [1, 2, 3], workers=2) == [-1, -2, -3]
        assert calls == [1, 2, 3]  # ran in this process

    def test_single_item_stays_serial(self):
        marker = []
        assert parallel_map(lambda x: marker.append(x) or x,
                            [9], workers=8) == [9]
        assert marker == [9]

    def test_nested_maps_degrade_to_serial(self, monkeypatch):
        monkeypatch.setenv(_IN_WORKER_ENV, "1")
        assert ParallelExecutor(workers=4).serial

    def test_executor_reusable_across_maps(self):
        with ParallelExecutor(workers=2, chunk_size=2) as ex:
            assert ex.map(square, range(6)) == [x * x for x in range(6)]
            assert ex.map(abs, [-1, -2]) == [1, 2]

    def test_executor_close_idempotent(self):
        ex = ParallelExecutor(workers=2)
        ex.map(square, range(4))
        ex.close()
        ex.close()


class TestWorkloadDeterminism:
    """Satellite: bit-for-bit identical results for workers=1 vs
    parallel and across repeated runs with the same seed."""

    def test_campaign_identical_across_worker_counts(self):
        from repro.core.campaign import Campaign

        def metrics(workers):
            result = Campaign(n_paths=3, seed=2,
                              duration=4.0).run(workers=workers)
            return result.results, result.detector_quality()

        serial_results, serial_quality = metrics(workers=1)
        again_results, again_quality = metrics(workers=1)
        parallel_results, parallel_quality = metrics(workers=4)
        assert serial_results == again_results      # repeatable
        assert serial_results == parallel_results   # worker-invariant
        assert serial_quality == again_quality == parallel_quality

    def test_sweep_parallel_matches_serial(self):
        from repro.experiments import fig2
        from repro.experiments.runner import sweep
        import functools

        def run_one(n_flows):
            return fig2.run(n_flows=n_flows, seed=3, workers=1)

        values = (40, 60)
        # Closure: exercised via serial fallback.
        serial_rows = sweep(values, run_one, label="n_flows", workers=1)
        # Picklable partial: exercised via the pool.
        pool_rows = sweep(
            values,
            functools.partial(fig2.run, seed=3, workers=1),
            label="n_flows", workers=2)
        assert serial_rows == pool_rows

    def test_fig2_identical_across_worker_counts(self):
        from repro.experiments import fig2

        serial, parallel = (
            fig2.run(n_flows=400, seed=2023, chunk_size=100,
                     workers=workers) for workers in (1, 4))
        assert serial.metrics == parallel.metrics
        assert serial.tables == parallel.tables


class TestCampaignJobPicklability:
    """The campaign's worker payload must stay picklable, or the pool
    silently degrades to serial -- pin it."""

    def test_run_path_job_is_picklable(self):
        import functools
        from repro.core.campaign import run_path, sample_paths
        from repro.core.detector import ContentionDetector

        job = functools.partial(run_path, duration=5.0,
                                detector=ContentionDetector())
        assert pickle.loads(pickle.dumps(job))
        assert pickle.loads(pickle.dumps(sample_paths(2, seed=1)[0]))

    def test_ndt_record_is_picklable(self):
        from repro.ndt.synth import SyntheticNdtGenerator

        record = SyntheticNdtGenerator(seed=1).generate(1).records[0]
        assert pickle.loads(pickle.dumps(record)).uuid == record.uuid


class TestTaskDeadline:
    """SIGALRM deadlines only work on the POSIX main thread; anywhere
    else they must degrade to a no-op with a one-time warning instead
    of crashing the worker (the serve executor threads hit this)."""

    def test_enforced_on_main_thread(self):
        import time

        from repro.runtime.pool import TaskTimeout, _task_deadline

        with pytest.raises(TaskTimeout):
            with _task_deadline(0.05):
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    pass  # CPU-bound: only a signal can interrupt this

    def test_none_is_a_noop_anywhere(self):
        from repro.runtime.pool import _task_deadline

        with _task_deadline(None):
            pass

    def test_degrades_off_main_thread_with_one_warning(self, monkeypatch):
        import threading
        import warnings

        from repro.runtime import pool

        monkeypatch.setattr(pool, "_DEADLINE_WARNED", False)
        caught = []

        def body():
            with warnings.catch_warnings(record=True) as batch:
                warnings.simplefilter("always")
                with pool._task_deadline(0.01):
                    pass  # must not raise, must not alarm
                with pool._task_deadline(0.01):
                    pass  # second use: already warned, stays silent
            caught.extend(batch)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        warned = [w for w in caught
                  if issubclass(w.category, RuntimeWarning)]
        assert len(warned) == 1
        assert "cannot be enforced" in str(warned[0].message)
        assert pool._DEADLINE_WARNED

"""Tests for the resumable scheduler and fault-tolerant pool path.

Covers the ISSUE 3 acceptance criterion end to end: a campaign
interrupted mid-run resumes and produces a byte-identical
``CampaignResult`` to an uninterrupted run at the same seed,
re-executing only the unfinished paths.
"""

import pickle

import pytest

from repro.core.campaign import Campaign, FailedPath
from repro.errors import ConfigError
from repro.obs.metrics import REGISTRY
from repro.runtime import (FaultPolicy, InjectedFault, ParallelExecutor,
                           TaskOutcome, fault_rate)
from repro.runtime.pool import _maybe_inject_fault
from repro.store import ArtifactStore, ResumableScheduler, fingerprint


def double(x):
    return 2 * x


def fragile(x):
    if x < 0:
        raise ValueError(f"cannot handle {x}")
    return x + 1


def keys_for(values, kind="item"):
    return [fingerprint(v, kind=kind) for v in values]


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture(autouse=True)
def _reset_metrics():
    REGISTRY.reset()
    yield
    REGISTRY.reset()


class TestFaultPolicy:
    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigError):
            FaultPolicy(retries=-1)
        with pytest.raises(ConfigError):
            FaultPolicy(timeout_s=0)
        with pytest.raises(ConfigError):
            FaultPolicy(backoff_factor=0.5)

    def test_bad_fault_rate_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "lots")
        with pytest.raises(ConfigError):
            fault_rate()
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.5")
        with pytest.raises(ConfigError):
            fault_rate()

    def test_injection_deterministic(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.5")

        def fails(label, attempt):
            try:
                _maybe_inject_fault(label, attempt)
                return False
            except InjectedFault:
                return True

        first = [fails(f"t{i}", 0) for i in range(64)]
        second = [fails(f"t{i}", 0) for i in range(64)]
        assert first == second           # deterministic per label
        assert any(first) and not all(first)


def run_tasks(executor, fn, items, **kwargs):
    """``imap_tasks``' outcomes, in submission order."""
    return sorted(executor.imap_tasks(fn, items, **kwargs),
                  key=lambda outcome: outcome.index)


class TestRunTasks:
    def test_outcomes_ordered_and_ok(self):
        with ParallelExecutor(workers=1) as ex:
            outcomes = run_tasks(ex, double, [1, 2, 3])
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_failures_quarantined_not_raised(self):
        with ParallelExecutor(workers=1) as ex:
            outcomes = run_tasks(
                ex, fragile, [3, -1, 5],
                policy=FaultPolicy(retries=1, backoff_s=0.0))
        assert [o.ok for o in outcomes] == [True, False, True]
        bad = outcomes[1]
        assert bad.error_type == "ValueError"
        assert "cannot handle -1" in bad.error
        assert bad.attempts == 2
        assert REGISTRY.counter("pool.task_failures").value == 1
        assert REGISTRY.counter("pool.retries").value == 1

    def test_pool_mode_matches_serial(self):
        with ParallelExecutor(workers=1) as serial, \
                ParallelExecutor(workers=2, chunk_size=1) as pool:
            a = run_tasks(serial, double, list(range(10)))
            b = run_tasks(pool, double, list(range(10)))
        assert [o.value for o in a] == [o.value for o in b]

    def test_injected_faults_recovered_by_retries(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.3")
        with ParallelExecutor(workers=1) as ex:
            outcomes = run_tasks(
                ex, double, list(range(24)),
                policy=FaultPolicy(retries=6, backoff_s=0.0))
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [2 * x for x in range(24)]
        assert REGISTRY.counter("pool.injected_faults").value > 0

    def test_timeout_enforced(self):
        import time

        def spin(x):
            deadline = time.time() + 5.0
            while time.time() < deadline:
                pass
            return x

        with ParallelExecutor(workers=1) as ex:
            outcome = run_tasks(
                ex, spin, [1],
                policy=FaultPolicy(retries=0, timeout_s=0.2))[0]
        assert not outcome.ok
        assert outcome.error_type == "TaskTimeout"
        assert REGISTRY.counter("pool.timeouts").value == 1

    def test_label_mismatch_rejected(self):
        with ParallelExecutor(workers=1) as ex:
            with pytest.raises(ConfigError):
                run_tasks(ex, double, [1, 2], labels=["only-one"])


class TestScheduler:
    def test_first_run_computes_second_run_hits(self, store):
        values = [1, 2, 3, 4]
        keys = keys_for(values)
        run_key = fingerprint("run", kind="campaign")
        first = ResumableScheduler(store, run_key).run(
            double, values, keys, workers=1)
        assert first.results == [2, 4, 6, 8]
        assert (first.hits, first.computed) == (0, 4)
        second = ResumableScheduler(store, run_key).run(
            double, values, keys, workers=1)
        assert second.results == first.results
        assert (second.hits, second.computed) == (4, 0)
        assert REGISTRY.counter("store.hits").value == 4

    def test_partial_completion_resumes(self, store):
        values = [1, 2, 3, 4, 5]
        keys = keys_for(values)
        run_key = fingerprint("run2", kind="campaign")
        # First run completes only a prefix (simulating interruption).
        ResumableScheduler(store, run_key).run(
            double, values[:2], keys[:2], workers=1)
        report = ResumableScheduler(store, run_key, resume=True).run(
            double, values, keys, workers=1)
        assert report.results == [2, 4, 6, 8, 10]
        assert (report.hits, report.computed) == (2, 3)

    def test_interrupt_mid_run_checkpoints(self, store):
        values = [10, 20, 30]
        keys = keys_for(values)
        run_key = fingerprint("run3", kind="campaign")

        calls = []

        def interrupting_progress(done, total):
            calls.append(done)
            if done == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ResumableScheduler(store, run_key).run(
                double, values, keys, workers=1,
                progress=interrupting_progress)
        manifest = ResumableScheduler(store, run_key,
                                      resume=True).manifest
        assert manifest["status"] == "running"  # reloaded for resume
        report = ResumableScheduler(store, run_key, resume=True).run(
            double, values, keys, workers=1)
        assert report.results == [20, 40, 60]
        assert report.hits >= 1                # checkpointed work kept
        assert report.computed == len(values) - report.hits

    def test_failure_quarantined_and_skipped_on_resume(self, store):
        values = [2, -7, 4]
        keys = keys_for(values)
        run_key = fingerprint("run4", kind="campaign")
        policy = FaultPolicy(retries=1, backoff_s=0.0)
        first = ResumableScheduler(store, run_key).run(
            fragile, values, keys, workers=1, policy=policy)
        assert first.results == [3, None, 5]
        assert len(first.failed) == 1
        assert first.failed[0].error_type == "ValueError"
        assert REGISTRY.counter("store.quarantined").value == 1
        # resume=True honors the quarantine without re-running.
        resumed = ResumableScheduler(store, run_key, resume=True).run(
            fragile, values, keys, workers=1, policy=policy)
        assert resumed.resumed == 1
        assert resumed.computed == 0
        assert len(resumed.failed) == 1
        # resume=False retries the quarantined task afresh: it fails
        # again (a new task_failure), rather than being skipped.
        failures_before = REGISTRY.counter("pool.task_failures").value
        fresh = ResumableScheduler(store, run_key).run(
            fragile, values, keys, workers=1, policy=policy)
        assert fresh.resumed == 0
        assert len(fresh.failed) == 1
        assert REGISTRY.counter("pool.task_failures").value \
            == failures_before + 1

    def test_duplicate_keys_rejected(self, store):
        run_key = fingerprint("run5", kind="campaign")
        with pytest.raises(ConfigError):
            ResumableScheduler(store, run_key).run(
                double, [1, 2], [keys_for([1])[0]] * 2, workers=1)

    def test_stale_manifest_ignored(self, store):
        run_key = fingerprint("run6", kind="campaign")
        other_key = fingerprint("other", kind="campaign")
        ResumableScheduler(store, other_key).run(
            double, [1], keys_for([1]), workers=1)
        # Resuming a different run_key must not adopt that manifest.
        sched = ResumableScheduler(store, run_key, resume=True)
        assert sched.manifest["done"] == {}


class TestCampaignResume:
    """The ISSUE 3 acceptance criterion, at campaign level."""

    N_PATHS, SEED, DURATION = 3, 2, 4.0

    def fresh_campaign(self):
        return Campaign(n_paths=self.N_PATHS, seed=self.SEED,
                        duration=self.DURATION)

    def test_interrupted_campaign_resumes_byte_identical(self, tmp_path):
        golden = self.fresh_campaign().run(workers=1, store=None)

        store = ArtifactStore(tmp_path / "store")

        def interrupt_after_one(done, total):
            if done == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self.fresh_campaign().run(workers=1, store=store,
                                      progress=interrupt_after_one)
        checkpointed = store.stat()["by_kind"]["path"]["entries"]
        assert checkpointed == 1               # exactly the finished path

        REGISTRY.reset()
        resumed = self.fresh_campaign().run(workers=1, store=store,
                                            resume=True)
        # Only the unfinished paths re-executed.
        assert REGISTRY.counter("store.hits").value == 1
        assert REGISTRY.counter("pool.tasks").value \
            == self.N_PATHS - checkpointed
        # Byte-identical to the uninterrupted run.  (Compared per
        # path: pickling the whole list encodes cross-object string
        # sharing that legitimately differs between freshly-computed
        # and store-loaded objects of identical value.)
        assert resumed == golden
        assert [pickle.dumps(r) for r in resumed.results] \
            == [pickle.dumps(r) for r in golden.results]

    def test_cached_rerun_executes_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        REGISTRY.reset()
        first = self.fresh_campaign().run(workers=1, store=store)
        assert REGISTRY.counter("store.hits").value == 0
        assert REGISTRY.counter("pool.tasks").value == self.N_PATHS
        REGISTRY.reset()
        second = self.fresh_campaign().run(workers=1, store=store)
        assert REGISTRY.counter("pool.tasks").value == 0
        assert REGISTRY.counter("store.hits").value == self.N_PATHS
        assert second == first
        assert [pickle.dumps(r) for r in second.results] \
            == [pickle.dumps(r) for r in first.results]

    def test_fault_injected_run_converges_to_golden(self, tmp_path,
                                                    monkeypatch):
        golden = self.fresh_campaign().run(workers=1, store=None)
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.3")
        store = ArtifactStore(tmp_path / "store")
        faulted = self.fresh_campaign().run(
            workers=1, store=store,
            policy=FaultPolicy(retries=8, backoff_s=0.0))
        assert not faulted.failed
        assert faulted == golden
        assert [pickle.dumps(r) for r in faulted.results] \
            == [pickle.dumps(r) for r in golden.results]

    def test_permanent_failure_quarantines_not_raises(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        store = ArtifactStore(tmp_path / "store")
        result = self.fresh_campaign().run(
            workers=1, store=store,
            policy=FaultPolicy(retries=1, backoff_s=0.0))
        assert result.results == []
        assert len(result.failed) == self.N_PATHS
        assert all(isinstance(f, FailedPath) for f in result.failed)
        assert all(f.error_type == "InjectedFault"
                   for f in result.failed)

    def test_default_path_unchanged_without_store(self):
        # No store: the raising fast path, no cache artifacts.
        result = self.fresh_campaign().run(workers=1, store=None)
        assert len(result.results) == self.N_PATHS
        assert result.failed == []

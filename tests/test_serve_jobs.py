"""JobManager lifecycle tests: admission, coalescing, journal resume.

These drive the manager directly on an asyncio loop -- no sockets.
A synthetic ``block`` executor (a thread parked on an Event) makes
coalescing, backpressure, timeout, and dirty-drain scenarios
deterministic instead of racing real experiment runtimes.
"""

import asyncio
import inspect
import json
import re
import threading
from pathlib import Path

import pytest

from repro.core.axes import declared
from repro.errors import ConfigError
from repro.serve import jobs as jobs_mod
from repro.serve.jobs import JobManager, ServiceDraining, bind_params
from repro.serve.protocol import JobRequest, JobState
from repro.serve.queue import QueueFull
from repro.store import ArtifactStore


def run(coro, timeout=60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def wait_terminal(job, timeout=30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not job.terminal:
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError(f"job stuck in {job.state}")
        await asyncio.sleep(0.01)
    return job


@pytest.fixture
def block(monkeypatch):
    """Register a ``block`` job kind that parks until released."""
    release = threading.Event()
    started = threading.Event()

    def execute_block(store, workers, **params):
        started.set()
        if not release.wait(timeout=30.0):
            raise TimeoutError("block executor never released")
        return {"blocked": params.get("tag", "")}, params

    monkeypatch.setitem(jobs_mod.EXECUTORS, "block", execute_block)
    yield type("Block", (), {"release": release, "started": started})
    release.set()  # never leave an executor thread parked


class TestExecution:
    def test_pipeline_job_runs_to_done(self):
        store = ArtifactStore()
        manager = JobManager(store=store, concurrency=1)
        request = JobRequest("pipeline", {"flows": 200})

        async def scenario():
            await manager.start()
            job, disposition = manager.submit(request)
            assert disposition == "queued"
            journal = manager._journal_path(job.key)
            assert journal.exists()
            await wait_terminal(job)
            assert job.state == JobState.DONE
            assert job.summary["total"] == 200
            assert not journal.exists()
            await manager.drain(grace_s=5.0)
            return job

        job = run(scenario())
        entry = store.get(job.key)
        assert entry["summary"] == job.summary
        assert entry["payload"].total == 200

    def test_cache_hit_skips_execution(self):
        store = ArtifactStore()
        request = JobRequest("pipeline", {"flows": 200})

        async def scenario(manager):
            await manager.start()
            job, disposition = manager.submit(request)
            await wait_terminal(job)
            await manager.drain(grace_s=5.0)
            return job, disposition

        first, disposition = run(scenario(JobManager(store=store)))
        assert disposition == "queued"
        second_manager = JobManager(store=store)
        second, disposition = second_manager.submit(request)
        assert disposition == "cached"
        assert second.cached and second.state == JobState.DONE
        assert second.summary == first.summary

    def test_failed_job_records_error(self):
        manager = JobManager(store=None, concurrency=1)
        # well-formed, so admitted; it is the run that fails
        request = JobRequest("experiment", {"experiment": "no_such"})

        async def scenario():
            await manager.start()
            job, _ = manager.submit(request)
            await wait_terminal(job)
            await manager.drain(grace_s=5.0)
            return job

        job = run(scenario())
        assert job.state == JobState.FAILED
        assert job.error_type == "ConfigError"
        assert "no_such" in job.error

    def test_timeout_marks_job(self, block):
        manager = JobManager(store=None, concurrency=1, timeout_s=0.1)
        request = JobRequest("block", {"tag": "slow"})

        async def scenario():
            await manager.start()
            job, _ = manager.submit(request)
            await wait_terminal(job, timeout=5.0)
            # The deadline has been observed; let the parked thread go,
            # or a clean drain (and the loop's shutdown) waits out the
            # fixture's 30 s on it.
            block.release.set()
            await manager.drain(grace_s=0.2)
            return job

        job = run(scenario())
        assert job.state == JobState.TIMEOUT
        assert "deadline" in job.error


class TestAdmission:
    def test_unknown_kind(self):
        manager = JobManager(store=None)
        with pytest.raises(ConfigError, match="unknown job kind"):
            manager.submit(JobRequest("nope"))

    def test_draining_refuses(self):
        manager = JobManager(store=None)
        manager.draining = True
        with pytest.raises(ServiceDraining):
            manager.submit(JobRequest("pipeline"))

    def test_coalescing(self, block):
        manager = JobManager(store=None, concurrency=1)

        async def scenario():
            await manager.start()
            first, d1 = manager.submit(JobRequest("block", {"tag": "a"}))
            second, d2 = manager.submit(JobRequest("block", {"tag": "a"}))
            other, d3 = manager.submit(JobRequest("block", {"tag": "b"}))
            assert (d1, d2, d3) == ("queued", "coalesced", "queued")
            assert second is first and first.waiters == 2
            assert other is not first
            block.release.set()
            await wait_terminal(first)
            await wait_terminal(other)
            # once terminal, an identical submission is a new job
            third, d4 = manager.submit(JobRequest("block", {"tag": "a"}))
            assert d4 == "queued" and third is not first
            await wait_terminal(third)
            await manager.drain(grace_s=5.0)

        run(scenario())

    def test_queue_full_backpressure(self, block):
        manager = JobManager(store=None, queue_depth=1, concurrency=1)

        async def scenario():
            await manager.start()
            running, _ = manager.submit(JobRequest("block", {"tag": "r"}))
            await asyncio.get_running_loop().run_in_executor(
                None, block.started.wait, 10.0)
            queued, _ = manager.submit(JobRequest("block", {"tag": "q"}))
            with pytest.raises(QueueFull) as exc:
                manager.submit(JobRequest("block", {"tag": "overflow"}))
            assert exc.value.retry_after_s >= 1.0
            block.release.set()
            await wait_terminal(running)
            await wait_terminal(queued)
            await manager.drain(grace_s=5.0)

        run(scenario())

    def test_cancel_queued_only(self, block):
        manager = JobManager(store=None, queue_depth=4, concurrency=1)

        async def scenario():
            await manager.start()
            running, _ = manager.submit(JobRequest("block", {"tag": "r"}))
            await asyncio.get_running_loop().run_in_executor(
                None, block.started.wait, 10.0)
            queued, _ = manager.submit(JobRequest("block", {"tag": "q"}))
            ok, _ = manager.cancel(queued.id)
            assert ok and queued.state == JobState.CANCELLED
            ok, reason = manager.cancel(running.id)
            assert not ok and "running" in reason
            ok, reason = manager.cancel("job-999999-deadbeef")
            assert not ok and "not found" in reason
            block.release.set()
            await wait_terminal(running)
            await manager.drain(grace_s=5.0)

        run(scenario())


class TestDrainAndResume:
    def test_dirty_drain_keeps_journal(self, block):
        store = ArtifactStore()
        manager = JobManager(store=store, concurrency=1)
        request = JobRequest("block", {"tag": "stuck"})

        async def scenario():
            await manager.start()
            job, _ = manager.submit(request)
            await asyncio.get_running_loop().run_in_executor(
                None, block.started.wait, 10.0)
            clean = await manager.drain(grace_s=0.1)
            assert not clean
            # the unfinished job's journal entry survives for restart
            assert manager._journal_path(job.key).exists()
            block.release.set()

        run(scenario())

    def test_resume_journal_re_admits(self):
        store = ArtifactStore()
        request = JobRequest("pipeline", {"flows": 200})
        # a manager admits (journals) the job but is killed before any
        # worker runs it: submit without start()
        killed = JobManager(store=store)
        admitted, disposition = killed.submit(request)
        assert disposition == "queued"
        assert killed._journal_path(admitted.key).exists()

        revived = JobManager(store=store, concurrency=1)

        async def scenario():
            resumed = await revived.start()
            assert len(resumed) == 1
            job = resumed[0]
            assert job.request == request
            await wait_terminal(job)
            assert job.state == JobState.DONE
            assert job.summary["total"] == 200
            await revived.drain(grace_s=5.0)
            return job

        job = run(scenario())
        assert not revived._journal_path(job.key).exists()

    def test_resume_drops_corrupt_journal(self, tmp_path):
        store = ArtifactStore()
        journal_dir = store.root / "serve" / "journal"
        journal_dir.mkdir(parents=True)
        bad = journal_dir / "deadbeef.json"
        bad.write_text("{not json")
        manager = JobManager(store=store)
        assert manager.resume_journal() == []
        assert not bad.exists()


class TestShardExecutors:
    """The cluster fabric's job kinds: ``paths`` and ``qa-eval``."""

    def test_paths_shard_checkpoints_under_coordinator_keys(self):
        from repro.core.campaign import Campaign
        from repro.serve.jobs import execute_paths

        store = ArtifactStore()
        params = {"n_paths": 3, "seed": 3, "duration": 1.0,
                  "backend": "fluid"}
        summary, payload = execute_paths(store, 1, indices=[0, 2],
                                         **params)
        campaign = Campaign(**params)
        keys = [campaign.path_key(campaign.specs[i]) for i in (0, 2)]
        assert summary["done"] == 2 and summary["failed"] == []
        assert summary["path_keys"] == keys
        assert payload["path_keys"] == keys
        for key in keys:
            assert key in store, "shard results travel by store key"
        skipped = campaign.path_key(campaign.specs[1])
        assert skipped not in store, "only the shard's indices run"

    def test_paths_shard_rejects_bad_requests(self):
        from repro.serve.jobs import execute_paths

        params = {"n_paths": 3, "duration": 1.0, "backend": "fluid"}
        with pytest.raises(ConfigError, match="need a store"):
            execute_paths(None, 1, indices=[0], **params)
        for indices in ([], [3], [-1], ["x"], [True], "0", [0, 0]):
            with pytest.raises(ConfigError, match="indices"):
                bind_params("paths", {**params, "indices": indices})
        with pytest.raises(ConfigError, match="indices"):
            bind_params("paths", params)

    def test_qa_eval_payload_equals_local_evaluator(self):
        from repro.qa.scenario import FlowSpec, Scenario
        from repro.qa.search import _run_search_scenario
        from repro.serve.jobs import execute_qa_eval

        scenario = Scenario(family="flows", rate_mbps=8.0, rtt_ms=20.0,
                            qdisc="droptail", duration=2.0, seed=42,
                            flows=(FlowSpec(cca="reno"),))
        summary, payload = execute_qa_eval(
            None, 1, scenario=scenario.to_dict())
        outcome, findings = _run_search_scenario(scenario)
        assert payload == (outcome, findings)
        assert summary["scenario"] == scenario.label()
        assert summary["failed"] == bool(findings)

    def test_qa_eval_rejects_bad_scenario_docs(self):
        from repro.serve.jobs import execute_qa_eval

        for doc in (None, "x"):
            with pytest.raises(ConfigError, match="scenario"):
                bind_params("qa-eval", {"scenario": doc})
        for doc in ({}, {"family": "nope"}):
            with pytest.raises(ConfigError):
                execute_qa_eval(None, 1, scenario=doc)


#: Requests that do not bind to their kind's executor signature.
MALFORMED = [
    ("campaign", {"n_path": 3}),                    # unknown name
    ("campaign", {"n_paths": 3, "durration": 1.0}),
    ("campaign", {"n_paths": "three"}),             # wrong type
    ("campaign", {"n_paths": 3.0}),
    ("campaign", {"n_paths": True}),                # bool is not an int
    ("campaign", {"duration": True}),
    ("campaign", {"resume": 1}),
    ("campaign", {"n_paths": 0}),                   # out of range
    ("campaign", {"seed": -1}),
    ("campaign", {"duration": 0}),
    ("campaign", {"fq_fraction": "half"}),
    ("campaign", {"backend": "abacus"}),            # axes, by their rows
    ("campaign", {"medium": 4}),
    ("campaign", {"timing_jitter": 0.1}),           # not a campaign axis
    ("paths", {"n_paths": 3}),                      # indices missing
    ("paths", {"n_paths": 3, "indices": []}),
    ("paths", {"n_paths": 3, "indices": [3]}),
    ("paths", {"indices": [40]}),
    ("paths", {"n_paths": 3, "indices": [0], "resume": True}),
    ("pipeline", {"flows": -5}),
    ("pipeline", {"chunk_size": 0}),
    ("pipeline", {"min_relative_shift": 0.0}),
    ("pipeline", {"streaming": True}),
    ("fig2-shard", {"start": -1}),
    ("fig2-shard", {"count": 0}),
    ("experiment", {}),                             # experiment missing
    ("experiment", {"experiment": "fig2", "params": [1]}),
    ("experiment", {"experiment": "fig2", "smoke": "yes"}),
    ("sweep", {"experiment": "fig2", "param": "", "values": [1]}),
    ("sweep", {"experiment": "fig2", "param": "n_flows", "values": []}),
    ("sweep", {"experiment": "fig2", "param": "n_flows",
               "values": [1], "base": "seed=1"}),
    ("qa-fuzz", {"budget": 25}),                   # a removed kind
    ("qa-search", {"threshold": 0}),
    ("qa-envelope", {"budget": 2.5}),
    ("qa-eval", {}),
    ("qa-eval", {"scenario": "reno"}),
    ("qa-search", {"threshold": 2.0}),              # a removed param
]


class TestParamBinding:
    """A kind's params are its executor's keyword signature, and a
    request is held to it before anything else happens to it."""

    @pytest.mark.parametrize("kind,params", MALFORMED)
    def test_malformed_request_is_refused_at_admission(self, kind,
                                                       params):
        store = ArtifactStore()
        manager = JobManager(store=store)
        request = JobRequest(kind, params)
        with pytest.raises(ConfigError):
            manager.submit(request)
        assert len(manager.queue) == 0
        assert not manager.jobs and not manager.inflight
        assert not (store.root / "serve" / "journal").exists()
        assert request.fingerprint() not in store
        assert store.stat()["entries"] == 0

    def test_zero_fq_fraction_and_workers_are_accepted(self):
        manager = JobManager(store=None)
        _, disposition = manager.submit(JobRequest(
            "campaign", {"n_paths": 1, "fq_fraction": 0.0, "workers": 4,
                         "duration": 1, "medium": "csma-2"}))
        assert disposition == "queued"

    def test_bound_values_are_what_the_executor_takes(self):
        assert bind_params("campaign", {}) == {}
        bound = bind_params("campaign", {"duration": 2, "workers": 4,
                                         "backend": "fluid"})
        assert bound == {"duration": 2.0, "backend": "fluid"}
        assert type(bound["duration"]) is float

    def test_catch_all_executor_takes_anything(self, block):
        params = {"tag": "x", "n_paths": "three"}
        assert bind_params("block", params) == params

    def test_resume_drops_an_entry_that_no_longer_binds(self):
        """A server that still took ``{"flows": -5}`` journaled it."""
        store = ArtifactStore()
        stale = JobRequest("pipeline", {"flows": -5})
        good = JobRequest("pipeline", {"flows": 200})
        journal_dir = store.root / "serve" / "journal"
        journal_dir.mkdir(parents=True)
        for request in (stale, good):
            (journal_dir / f"{request.fingerprint()}.json").write_text(
                json.dumps({"version": 1, "request": request.to_dict(),
                            "admitted": 1.0}))
        manager = JobManager(store=store)
        resumed = manager.resume_journal()
        assert [job.request for job in resumed] == [good]
        assert not (journal_dir / f"{stale.fingerprint()}.json").exists()
        assert (journal_dir / f"{good.fingerprint()}.json").exists()

    def test_serving_md_lists_exactly_the_declared_params(self):
        """SERVING.md's kinds table is each executor's ``def`` line:
        the same names, the same defaults (none: required)."""
        text = (Path(__file__).parent.parent / "SERVING.md").read_text()
        documented = {
            kind: dict(re.findall(r"`(\w+)(?:=([^`]+))?`", cell))
            for kind, cell in re.findall(r"^\| `([\w-]+)` \| (.+) \|$",
                                         text, flags=re.MULTILINE)}
        declaration = {}
        for kind, executor in jobs_mod.EXECUTORS.items():
            declaration[kind] = row = {}
            for name, param in inspect.signature(
                    executor).parameters.items():
                if param.kind is param.KEYWORD_ONLY:
                    row[name] = ("" if param.default is param.empty
                                 else json.dumps(param.default))
                elif param.kind is param.VAR_KEYWORD:
                    row.update({axis.name: json.dumps(axis.default)
                                for axis in declared("run", "path")})
        assert documented == declaration

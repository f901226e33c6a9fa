"""Coordinator: dispatch/steal/merge semantics with scripted nodes,
and end-to-end clustered runs against live :class:`ServerThread`s.

The unit half drives the single-threaded loop with a fake clock and
in-memory clients, so every failure path (transport loss, execution
quarantine, stealing, dead cluster) is deterministic.  The e2e half
asserts the headline guarantee: a clustered campaign's store objects
are byte-identical to a serial run's, even with a dead node in the
spec, and a clustered search report equals the local one.
"""

import pickle

import pytest

from repro.cluster import (ClusterJournal, Coordinator, Membership,
                           list_journals, parse_cluster,
                           run_clustered_campaign, run_clustered_search,
                           shard_indices, task_for)
from repro.core.campaign import Campaign
from repro.errors import ClusterError, ConfigError
from repro.experiments import fig2
from repro.serve import ServeError, ServerThread
from repro.serve.limits import ClientRateLimiter
from repro.store import ArtifactStore, using_store


@pytest.fixture(autouse=True)
def _fresh_metrics():
    from repro.obs.metrics import REGISTRY
    REGISTRY.reset()
    yield
    REGISTRY.reset()


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class FakeServeNode:
    """Client-side stand-in for one serve node.

    Jobs reach ``state`` (default ``done``) on the first poll, and
    artifact fetches are served from ``objects`` (key -> bytes).
    """

    def __init__(self, objects, *, submit_hook=None, state="done"):
        self.objects = objects
        self.submit_hook = submit_hook
        self.state = state
        self.submitted = []
        self.status_calls = 0
        self.cancelled = []
        self.closes = 0
        self._n = 0

    def submit(self, kind, params, priority=3):
        if self.submit_hook is not None:
            doc = self.submit_hook(kind, params)
            if doc is not None:
                return doc
        self._n += 1
        self.submitted.append((kind, dict(params)))
        return {"id": f"job-{self._n}", "state": "queued",
                "disposition": "queued"}

    def status(self, job_id):
        self.status_calls += 1
        state = self.state
        return {"id": job_id, "state": state, "summary": {"ok": True},
                "error": "boom" if state == "failed" else ""}

    def cancel(self, job_id):
        self.cancelled.append(job_id)
        return {"id": job_id, "state": "cancelled"}

    def fetch_store(self, key):
        try:
            return self.objects[key]
        except KeyError:
            raise ServeError(404, f"no store object {key[:16]}...")

    def close(self):
        self.closes += 1


class DyingServeNode(FakeServeNode):
    """A node that goes down for good right after serving its first
    artifact: every later call is a transport error, every probe
    fails."""

    def __init__(self, objects, clients, name):
        super().__init__(objects)
        self.clients = clients
        self.name = name
        self.dead = False

    def _check(self):
        if self.dead:
            raise ServeError(0, "connection refused")

    def submit(self, kind, params, priority=3):
        self._check()
        return super().submit(kind, params, priority)

    def status(self, job_id):
        self._check()
        return super().status(job_id)

    def fetch_store(self, key):
        self._check()
        data = super().fetch_store(key)
        self.dead = True
        self.clients[self.name] = None
        return data


def _tasks(n, objects, tag="t"):
    """n distinct tasks whose result objects land in ``objects``."""
    tasks = []
    for i in range(n):
        task = task_for("fake", {"i": i, "tag": tag})
        objects[task.key] = pickle.dumps({"i": i, "tag": tag},
                                         protocol=4)
        tasks.append(task)
    return tasks


def _fabric(clients, tmp_path, clock=None):
    """A (coordinator, store, clock) triple over scripted clients.

    ``clients`` maps node name ("host:port") to a client object, or
    None for a node whose probe always fails.
    """
    clock = clock or FakeClock()

    def probe(node):
        if clients.get(node.name) is None:
            raise ConnectionError("down")
        return {"status": "ok"}

    membership = Membership(parse_cluster(list(clients)), probe=probe,
                            clock=clock)
    store = ArtifactStore(tmp_path / "coordinator-store")
    coordinator = Coordinator(
        membership, store, clock=clock, sleep=clock.advance,
        client_factory=lambda node: clients[node.name])
    return coordinator, store, clock


class TestCoordinatorLoop:
    def test_happy_path_merges_every_task(self, tmp_path):
        objects = {}
        a, b = FakeServeNode(objects), FakeServeNode(objects)
        coordinator, store, _ = _fabric({"a:1": a, "b:2": b}, tmp_path)
        tasks = _tasks(12, objects)
        records = coordinator.run(tasks)
        assert all(r.status == "done" for r in records.values())
        for task in tasks:
            assert store.get_bytes(task.key) == objects[task.key]
        # Rendezvous placement spreads a 12-task set over both nodes.
        assert a.submitted and b.submitted
        # The run closes its per-node clients' idle connections.
        assert a.closes == b.closes == 1

    def test_duplicate_tasks_collapse_to_one_record(self, tmp_path):
        objects = {}
        node = FakeServeNode(objects)
        coordinator, _, _ = _fabric({"a:1": node}, tmp_path)
        [task] = _tasks(1, objects)
        records = coordinator.run([task, task, task])
        assert list(records) == [task.key]
        assert len(node.submitted) == 1
        from repro.obs.metrics import REGISTRY
        snap = REGISTRY.snapshot()
        assert snap["cluster.tasks_deduplicated"]["value"] == 2.0

    def test_transport_failure_fails_over_to_live_node(self, tmp_path):
        objects = {}
        good = FakeServeNode(objects)

        def refuse(kind, params):
            raise ServeError(0, "connection refused")

        flaky = FakeServeNode(objects, submit_hook=refuse)
        coordinator, store, _ = _fabric({"a:1": flaky, "b:2": good},
                                        tmp_path)
        tasks = _tasks(6, objects)
        records = coordinator.run(tasks)
        assert all(r.status == "done" for r in records.values())
        assert all(r.node == "b:2" for r in records.values())
        assert len(good.submitted) == 6

    def test_execution_failures_quarantine_after_max_attempts(
            self, tmp_path):
        objects = {}
        node = FakeServeNode(objects, state="failed")
        coordinator, _, _ = _fabric({"a:1": node}, tmp_path)
        [task] = _tasks(1, objects)
        records = coordinator.run([task])
        record = records[task.key]
        assert record.status == "failed"
        assert record.failures == 3 and record.error == "boom"
        assert len(node.submitted) == 3

    def test_invalid_request_quarantines_without_retry(self, tmp_path):
        objects = {}

        def reject(kind, params):
            raise ServeError(400, "param 'indices' must be ...")

        node = FakeServeNode(objects, submit_hook=reject)
        coordinator, _, _ = _fabric({"a:1": node}, tmp_path)
        [task] = _tasks(1, objects)
        records = coordinator.run([task])
        assert records[task.key].status == "failed"
        assert "indices" in records[task.key].error
        assert node.status_calls == 0, "a 400 never reaches polling"

    def test_cached_disposition_merges_without_polling(self, tmp_path):
        objects = {}
        node = FakeServeNode(objects)
        node.submit_hook = lambda kind, params: {
            "id": "cached-1", "state": "done",
            "disposition": "cached", "summary": {"cached": True}}
        coordinator, store, _ = _fabric({"a:1": node}, tmp_path)
        [task] = _tasks(1, objects)
        records = coordinator.run([task])
        assert records[task.key].status == "done"
        assert records[task.key].summary == {"cached": True}
        assert node.status_calls == 0
        assert store.get_bytes(task.key) == objects[task.key]

    def test_stuck_task_is_stolen_and_loser_cancelled(self, tmp_path):
        objects = {}
        slow = FakeServeNode(objects, state="running")
        fast = FakeServeNode(objects)
        coordinator, _, clock = _fabric({"a:1": slow, "b:2": fast},
                                        tmp_path)
        nodes = coordinator.membership.nodes
        # A task whose rendezvous placement prefers the slow node.
        for i in range(64):
            task = task_for("fake", {"i": i, "tag": "steal"})
            if coordinator._rendezvous(task.key, nodes)[0].name \
                    == "a:1":
                break
        else:  # pragma: no cover - 2^-64 unlucky
            pytest.fail("no key rendezvoused onto a:1")
        objects[task.key] = pickle.dumps({"i": i}, protocol=4)
        records = coordinator.run([task])
        record = records[task.key]
        assert record.status == "done" and record.node == "b:2"
        assert len(slow.submitted) == 1 and len(fast.submitted) == 1
        assert slow.cancelled, "the loser's replica gets cancelled"

    def test_dead_cluster_raises_after_grace(self, tmp_path):
        objects = {}
        coordinator, _, _ = _fabric({"a:1": None, "b:2": None},
                                    tmp_path)
        with pytest.raises(ClusterError, match="no live cluster node"):
            coordinator.run(_tasks(2, objects))

    def test_journal_ends_partial_when_the_cluster_dies(self, tmp_path):
        objects = {}
        clients = {}
        node = DyingServeNode(objects, clients, "a:1")
        clients["a:1"] = node
        coordinator, store, _ = _fabric(clients, tmp_path)
        coordinator.journal = ClusterJournal(store, "dying-run")
        with pytest.raises(ClusterError, match="no live cluster node"):
            coordinator.run(_tasks(3, objects))
        [row] = list_journals(store)
        assert row["run"] == "dying-run"
        assert row["status"] == "partial"
        assert row["by_status"] == {"done": 1}

    def test_coordinator_requires_a_store(self, tmp_path):
        clock = FakeClock()
        membership = Membership([("a", 1)],
                                probe=lambda n: {"status": "ok"},
                                clock=clock)
        with pytest.raises(ConfigError):
            Coordinator(membership, None)


class TestShardIndices:
    def test_near_equal_contiguous_chunks(self):
        assert shard_indices(list(range(7)), 3) == \
            [[0, 1, 2], [3, 4], [5, 6]]

    def test_never_produces_empty_shards(self):
        assert shard_indices([4, 9], 8) == [[4], [9]]
        assert shard_indices([1], 1) == [[1]]


# -- end to end ------------------------------------------------------------

#: Small-but-real campaign: 4 fluid paths, ~1s each of simulated time.
E2E_PARAMS = {"n_paths": 4, "seed": 3, "duration": 1.0,
              "backend": "fluid"}


def _open_limiter():
    return ClientRateLimiter(rate=1000.0, burst=1000.0)


def _node(tmp_path, name):
    return ServerThread(store=ArtifactStore(tmp_path / name),
                        concurrency=1, limiter=_open_limiter())


class TestClusteredCampaign:
    def test_two_nodes_byte_identical_to_serial(self, tmp_path):
        serial_store = ArtifactStore(tmp_path / "serial")
        golden = Campaign(**E2E_PARAMS).run(
            store=serial_store, workers=1)

        local = ArtifactStore(tmp_path / "local")
        with _node(tmp_path, "node-a") as a, \
                _node(tmp_path, "node-b") as b:
            membership = Membership(
                parse_cluster(f"127.0.0.1:{a.port},"
                              f"127.0.0.1:{b.port}"))
            result = run_clustered_campaign(
                E2E_PARAMS, membership, store=local, workers=1)

        # The byte-identity contract holds at the store level: every
        # per-path object a remote node computed matches the serial
        # run's bytes for the same content address.
        campaign = Campaign(**E2E_PARAMS)
        for spec in campaign.specs:
            key = campaign.path_key(spec)
            assert local.get_bytes(key) == serial_store.get_bytes(key)
        assert result.fraction_contending == golden.fraction_contending
        assert result.detector_quality() == golden.detector_quality()
        assert [r.verdict for r in result.results] == \
            [r.verdict for r in golden.results]

    def test_dead_node_in_spec_does_not_block_the_run(self, tmp_path):
        serial_store = ArtifactStore(tmp_path / "serial")
        golden = Campaign(**E2E_PARAMS).run(
            store=serial_store, workers=1)

        local = ArtifactStore(tmp_path / "local")
        with _node(tmp_path, "node-a") as a:
            # Port 9 (discard) is never a serve node: connect fails.
            membership = Membership(
                parse_cluster(f"127.0.0.1:{a.port},127.0.0.1:9"))
            result = run_clustered_campaign(
                E2E_PARAMS, membership, store=local, workers=1)
        assert result.fraction_contending == golden.fraction_contending
        assert [r.verdict for r in result.results] == \
            [r.verdict for r in golden.results]


    def test_rerun_against_a_warm_store_dispatches_nothing(self,
                                                           tmp_path):
        """What resumes a clustered campaign is the local store: every
        path already in it is skipped before any task is built."""
        from repro.obs.metrics import REGISTRY

        objects = {}
        node = FakeServeNode(objects)
        coordinator, store, _ = _fabric({"a:1": node}, tmp_path)
        warm = Campaign(**E2E_PARAMS).run(store=store, workers=1)
        result = run_clustered_campaign(
            E2E_PARAMS, coordinator.membership, store=store, workers=1,
            coordinator=coordinator)
        assert node.submitted == []
        assert REGISTRY.counter("cluster.campaign_paths_local").value \
            == E2E_PARAMS["n_paths"]
        assert [r.verdict for r in result.results] == \
            [r.verdict for r in warm.results]


class TestClusteredSearch:
    def test_report_equals_local_search(self, tmp_path):
        from repro.qa.search import run_search

        budget, seed = 8, 3
        golden = run_search(budget, seed=seed, workers=1)
        local = ArtifactStore(tmp_path / "local")
        with _node(tmp_path, "node-a") as a:
            membership = Membership(
                parse_cluster(f"127.0.0.1:{a.port}"))
            report = run_clustered_search(budget, membership,
                                          seed=seed, store=local)
        assert report.to_dict() == golden.to_dict()


class TestClusteredFig2:
    def test_small_run_reports_the_local_tables(self, tmp_path):
        """A clustered run below the old 20k streaming threshold has
        the local run's sketch CDF table and metrics."""
        run = dict(n_flows=300, seed=4, chunk_size=100, workers=1)
        with _node(tmp_path, "node-a") as a, \
                using_store(ArtifactStore(tmp_path / "local")):
            clustered = fig2.run(cluster=f"127.0.0.1:{a.port}", **run)
        local = fig2.run(**run)
        assert clustered.tables["throughput_cdfs"]
        assert clustered.tables == local.tables
        assert clustered.metrics == local.metrics

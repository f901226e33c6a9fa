"""The cluster coordinator: shard, dispatch, steal, merge.

One coordinator process drives N ``repro serve`` nodes:

* **Sharding** -- a run is decomposed into :class:`ClusterTask`s, each
  a serve job (kind + params) plus the store keys of the artifacts it
  will produce.  Task identity is the serve request fingerprint, so
  two tasks with equal semantics are *the same task* -- duplicates
  collapse at submission (here) and coalesce at admission (on the
  node), and replayed results merge idempotently by content address.
* **Placement** -- rendezvous (highest-random-weight) hashing of the
  task fingerprint over the live node set: placement is stable under
  membership churn (a node joining or dying only moves the tasks it
  owns), with bounded in-flight dispatch per node so every node's
  queue stays fed without flooding.
* **Work stealing** -- a task in flight longer than :data:`STEAL_AFTER_S`
  gets a replica on another live node; first completion wins, and the
  loser's results (same content addresses) merge harmlessly.
* **Fault handling** -- transport failures mark a node down with
  exponential backoff (see :mod:`repro.cluster.membership`) and its
  tasks re-dispatch elsewhere; *execution* failures retry on other
  nodes up to :data:`MAX_ATTEMPTS` times before the task is
  quarantined (the
  caller then recomputes locally or reports it).

The loop is single-threaded and clock-injectable: every decision
happens in one poll tick, which makes the failure semantics testable
without real time or real sockets.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..errors import ClusterError, ConfigError
from ..obs.metrics import REGISTRY as _METRICS
from ..serve.client import ServeClient, ServeError
from ..serve.protocol import JobRequest
from ..store.artifacts import ArtifactStore
from .journal import ClusterJournal
from .membership import (CONNECT_TIMEOUT_S, READ_TIMEOUT_S, Membership,
                         Node, parse_cluster)
from .merge import pull_objects

#: ``paths`` tasks per node a clustered campaign is cut into (the
#: granularity work stealing has to move).
SHARDS_PER_NODE = 4

#: Dispatch bound per live node.
MAX_INFLIGHT_PER_NODE = 2

#: Loop tick (status polls per in-flight attempt), seconds.
POLL_S = 0.05

#: Age (seconds) at which an in-flight task earns a replica on another
#: node.
STEAL_AFTER_S = 20.0

#: Execution failures before a task is quarantined.
MAX_ATTEMPTS = 3

#: How long (seconds) the loop tolerates zero live nodes, with work
#: outstanding, before raising :class:`ClusterError`.
DEAD_GRACE_S = 120.0


@dataclass(frozen=True)
class ClusterTask:
    """One unit of cluster dispatch.

    Attributes:
        key: the serve request fingerprint -- the task's identity for
            duplicate suppression, journaling, and the store key of
            its result object.
        kind / params: the serve job to submit.
        artifact_keys: store keys the executing node will hold on
            completion, pulled into the local store at merge time.
        label: human-readable name for logs and journal rows.
    """

    key: str
    kind: str
    params: Mapping
    artifact_keys: tuple[str, ...] = ()
    label: str = ""


def task_for(kind: str, params: Mapping,
             artifact_keys: Sequence[str] = (),
             label: str = "") -> ClusterTask:
    """Build a task whose key is the serve request fingerprint."""
    request = JobRequest(kind=kind, params=dict(params))
    return ClusterTask(key=request.fingerprint(), kind=kind,
                       params=dict(params),
                       artifact_keys=tuple(artifact_keys), label=label)


@dataclass
class TaskRecord:
    """The coordinator's ledger entry for one task."""

    task: ClusterTask
    status: str = "pending"   # pending|running|done|failed
    node: str = ""            # node that completed (or last failed) it
    failures: int = 0         # terminal execution failures so far
    dispatches: int = 0
    error: str = ""
    summary: dict | None = None

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")


@dataclass
class _Attempt:
    node: Node
    job_id: str
    submitted_at: float
    stolen: bool = False


class Coordinator:
    """Dispatch a task set across a cluster and merge results back.

    Args:
        membership: the probed node list.
        store: local artifact store results merge into (required --
            the store *is* the result channel).
        journal: optional :class:`ClusterJournal` recording every task
            transition and how the run ended.
        clock / sleep: injectable time sources for tests.
        client_factory: ``fn(node) -> ServeClient`` (injectable).
    """

    def __init__(self, membership: Membership, store: ArtifactStore,
                 journal: ClusterJournal | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 client_factory: Callable[[Node], ServeClient] | None = None):
        if store is None:
            raise ConfigError("the coordinator needs a local store "
                              "(results merge into it)")
        self.membership = membership
        self.store = store
        self.journal = journal
        self.clock = clock
        self.sleep = sleep
        self._client_factory = (client_factory if client_factory
                                else self._default_client)
        self._clients: dict[str, ServeClient] = {}
        self._metrics = _METRICS.scoped("cluster")

    @staticmethod
    def _default_client(node: Node) -> ServeClient:
        return ServeClient(node.host, node.port,
                           timeout=READ_TIMEOUT_S,
                           connect_timeout=CONNECT_TIMEOUT_S,
                           client_id="cluster-coordinator")

    def _client(self, node: Node) -> ServeClient:
        client = self._clients.get(node.name)
        if client is None:
            client = self._client_factory(node)
            self._clients[node.name] = client
        return client

    # -- placement -------------------------------------------------------

    @staticmethod
    def _rendezvous(key: str, nodes: Sequence[Node]) -> list[Node]:
        """Nodes in highest-random-weight order for ``key``."""
        def score(node: Node) -> str:
            return hashlib.sha256(
                f"{key}|{node.name}".encode()).hexdigest()
        return sorted(nodes, key=score, reverse=True)

    def _node_load(self, inflight: Mapping[str, list[_Attempt]]
                   ) -> dict[str, int]:
        load: dict[str, int] = {}
        for attempts in inflight.values():
            for attempt in attempts:
                load[attempt.node.name] = \
                    load.get(attempt.node.name, 0) + 1
        return load

    # -- the run loop ----------------------------------------------------

    def run(self, tasks: Sequence[ClusterTask]) -> dict[str, TaskRecord]:
        """Run ``tasks`` to completion; returns the ledger by key.

        Duplicate keys are suppressed up front (one record serves all
        copies).  Raises :class:`ClusterError` only when no node is
        live for :data:`DEAD_GRACE_S` with work outstanding (the journal
        then ends ``partial``); individual task failures are recorded,
        not raised -- callers fall back to local execution for
        quarantined tasks.  The per-node clients' idle connections are
        closed when it returns.
        """
        records: dict[str, TaskRecord] = {}
        order: list[str] = []
        for task in tasks:
            if task.key not in records:
                records[task.key] = TaskRecord(task=task)
                order.append(task.key)
            else:
                self._metrics.counter("tasks_deduplicated").inc()
        pending: deque[str] = deque(order)
        inflight: dict[str, list[_Attempt]] = {}
        last_alive = self.clock()

        clean = False
        try:
            while pending or inflight:
                self.membership.tick()
                live = self.membership.live()
                now = self.clock()
                if live:
                    last_alive = now
                elif now - last_alive > DEAD_GRACE_S:
                    raise ClusterError(
                        f"no live cluster node for "
                        f"{DEAD_GRACE_S:g}s with "
                        f"{len(pending) + len(inflight)} tasks "
                        "outstanding")
                self._dispatch(pending, inflight, records, live)
                self._poll(pending, inflight, records)
                self._steal(inflight, records)
                if pending or inflight:
                    self.sleep(POLL_S)
            clean = all(records[k].status != "failed" for k in order)
        finally:
            if self.journal is not None:
                self.journal.finish(clean=clean)
            for client in self._clients.values():
                client.close()
        return records

    # -- dispatch --------------------------------------------------------

    def _capacity(self, live: Sequence[Node],
                  inflight: Mapping[str, list[_Attempt]],
                  exclude: str | None = None) -> list[Node]:
        load = self._node_load(inflight)
        now = self.clock()
        return [n for n in live
                if n.name != exclude and now >= n.busy_until
                and load.get(n.name, 0) < MAX_INFLIGHT_PER_NODE]

    def _dispatch(self, pending: deque, inflight: dict,
                  records: dict[str, TaskRecord],
                  live: Sequence[Node]) -> None:
        stalled: list[str] = []
        while pending:
            candidates = self._capacity(live, inflight)
            if not candidates:
                break
            key = pending.popleft()
            record = records[key]
            attempt = self._submit(record,
                                   self._rendezvous(key, candidates)[0])
            if attempt is None:
                if record.finished:
                    continue  # cached hit or permanent rejection
                stalled.append(key)  # node refused; retry next tick
                continue
            record.status = "running"
            inflight[key] = [attempt]
        pending.extend(stalled)

    def _submit(self, record: TaskRecord,
                node: Node) -> _Attempt | None:
        """Submit one task to one node.

        Returns the attempt, or None when no attempt is in flight --
        either the node refused (transient: the task stays pending) or
        the response settled the task (cached hit, permanent 4xx).
        """
        task = record.task
        client = self._client(node)
        try:
            doc = client.submit(task.kind, dict(task.params), priority=3)
        except ServeError as exc:
            if exc.status == 0:
                self.membership.mark_down(node)
                self._metrics.counter("dispatch_transport_errors").inc()
            elif exc.status == 429:
                node.busy_until = self.clock() + (exc.retry_after_s
                                                  or 1.0)
            elif exc.status == 503:
                node.draining = True
            else:
                # 400-class: the request itself is invalid on every
                # node; quarantine instead of retrying forever.
                record.status = "failed"
                record.error = str(exc)
                record.node = node.name
                self._record_journal(record)
                self._metrics.counter("tasks_failed").inc()
            return None
        record.dispatches += 1
        self._metrics.counter(
            f"node.{node.metric_name}.dispatched").inc()
        if doc.get("disposition") == "cached":
            if self._merge(record, node, doc):
                return None
            # The node answered from cache but could not serve the
            # artifacts (crashed between answer and pull): leave the
            # task pending for another node.
            return None
        return _Attempt(node=node, job_id=doc["id"],
                        submitted_at=self.clock())

    # -- polling ---------------------------------------------------------

    def _poll(self, pending: deque, inflight: dict,
              records: dict[str, TaskRecord]) -> None:
        for key in list(inflight):
            record = records[key]
            attempts = inflight[key]
            for attempt in list(attempts):
                try:
                    doc = self._client(attempt.node).status(
                        attempt.job_id)
                except ServeError as exc:
                    if exc.status == 0:
                        self.membership.mark_down(attempt.node)
                    # 404 == the node restarted and lost its job table
                    # (its journal will resume the work, but we cannot
                    # wait on a job id that no longer exists).
                    attempts.remove(attempt)
                    continue
                state = doc.get("state")
                if state == "done":
                    if self._merge(record, attempt.node, doc):
                        self._cancel_siblings(attempts, attempt)
                        del inflight[key]
                        break
                    attempts.remove(attempt)
                elif state in ("failed", "timeout", "cancelled"):
                    record.failures += 1
                    record.error = doc.get("error", state)
                    record.node = attempt.node.name
                    self._metrics.counter(
                        f"node.{attempt.node.metric_name}.failed").inc()
                    attempts.remove(attempt)
            if key not in inflight:
                continue
            if not attempts:
                del inflight[key]
                if record.failures >= MAX_ATTEMPTS:
                    record.status = "failed"
                    self._record_journal(record)
                    self._metrics.counter("tasks_failed").inc()
                else:
                    record.status = "pending"
                    pending.append(key)

    def _cancel_siblings(self, attempts: list[_Attempt],
                         winner: _Attempt) -> None:
        """Best-effort cancel of a completed task's other replicas
        (queued replicas die; running ones finish and their results
        merge idempotently by content address)."""
        for attempt in attempts:
            if attempt is winner:
                continue
            try:
                self._client(attempt.node).cancel(attempt.job_id)
            except ServeError:
                pass

    # -- stealing --------------------------------------------------------

    def _steal(self, inflight: dict,
               records: dict[str, TaskRecord]) -> None:
        now = self.clock()
        live = self.membership.live()
        for key, attempts in inflight.items():
            if len(attempts) != 1:
                continue
            primary = attempts[0]
            if now - primary.submitted_at < STEAL_AFTER_S:
                continue
            candidates = self._capacity(live, inflight,
                                        exclude=primary.node.name)
            if not candidates:
                continue
            node = self._rendezvous(key, candidates)[0]
            replica = self._submit(records[key], node)
            if replica is not None:
                replica.stolen = True
                attempts.append(replica)
                self._metrics.counter(
                    f"node.{node.metric_name}.stolen").inc()
            elif records[key].finished or not attempts:
                # _submit settled the task (cached merge) mid-steal.
                continue

    # -- merge -----------------------------------------------------------

    def _merge(self, record: TaskRecord, node: Node, doc: dict) -> bool:
        """Pull a completed task's artifacts; True when merged."""
        task = record.task
        client = self._client(node)
        try:
            pull_objects(client, self.store,
                         (task.key, *task.artifact_keys),
                         kind="cluster-object",
                         label=task.label or task.kind)
        except (ServeError, ClusterError):
            # Node died (or lied) between completion and fetch; the
            # caller's loop re-dispatches the task elsewhere.
            self.membership.mark_down(node)
            self._metrics.counter("merge_errors").inc()
            return False
        record.status = "done"
        record.node = node.name
        record.summary = doc.get("summary")
        self._record_journal(record)
        self._metrics.counter(
            f"node.{node.metric_name}.completed").inc()
        return True

    def _record_journal(self, record: TaskRecord) -> None:
        if self.journal is not None:
            self.journal.record(record.task.key, record.status,
                                node=record.node, error=record.error)


# ---------------------------------------------------------------------------
# High-level entry points
# ---------------------------------------------------------------------------


def shard_indices(indices: Sequence[int], shard_count: int
                  ) -> list[list[int]]:
    """Split ``indices`` into ``shard_count`` near-equal contiguous
    chunks (deterministic; no empty shards)."""
    shard_count = max(1, min(shard_count, len(indices)))
    base, extra = divmod(len(indices), shard_count)
    shards, cursor = [], 0
    for i in range(shard_count):
        size = base + (1 if i < extra else 0)
        shards.append(list(indices[cursor:cursor + size]))
        cursor += size
    return shards


def _coordinator(cluster, store, journal=None) -> Coordinator:
    """A coordinator over a node spec or an existing Membership."""
    if not isinstance(cluster, Membership):
        cluster = Membership(parse_cluster(cluster))
    return Coordinator(cluster, store, journal=journal)


def _dispatch_missing(keys, store, local_metric, make_tasks, cluster,
                      run_key, coordinator) -> None:
    """Run on the cluster ``make_tasks(todo, node_count)``, the tasks
    for the ``keys`` the local store lacks; stored keys count into
    ``cluster.<local_metric>``, quarantined tasks (the caller's local
    assembly recomputes them) into ``cluster.shards_fallback_local``."""
    metrics = _METRICS.scoped("cluster")
    todo = [i for i, key in enumerate(keys) if key not in store]
    metrics.counter(local_metric).inc(len(keys) - len(todo))
    if todo:
        if coordinator is None:
            coordinator = _coordinator(cluster, store,
                                       ClusterJournal(store, run_key))
        records = coordinator.run(
            make_tasks(todo, len(coordinator.membership.nodes)))
        lost = sum(1 for r in records.values() if r.status == "failed")
        if lost:
            metrics.counter("shards_fallback_local").inc(lost)


def run_clustered_campaign(params: Mapping, cluster,
                           store: ArtifactStore | None = None,
                           workers: int | None = None,
                           resume: bool = False,
                           coordinator: Coordinator | None = None):
    """Run a campaign across a serve cluster; returns
    :class:`~repro.core.campaign.CampaignResult`.

    The flow: build the campaign locally, fingerprint every path,
    shard the paths *not already in the local store* into ``paths``
    tasks (about :data:`SHARDS_PER_NODE` per node, for stealing
    granularity), dispatch them, pull each completed shard's per-path
    objects back by content address, and finally assemble through
    :meth:`Campaign.run` against the local store -- every merged path
    is a cache hit, every quarantined or lost path recomputes locally,
    and the result is byte-identical to a serial run by construction.

    Args:
        params: what a serve ``campaign`` job takes, held to the same
            declaration (:func:`repro.serve.jobs.bind_params`).
        cluster: node spec for :func:`parse_cluster`, or an existing
            :class:`Membership` when ``coordinator`` is None.
        store: local merge target (default: the default store).
        workers: local workers for the final assembly (and any
            fallback recomputation).
        resume: forwarded to the final :meth:`Campaign.run` (honor a
            prior manifest's quarantine list).
        coordinator: injectable pre-built coordinator (tests).
    """
    from ..core.campaign import Campaign
    from ..serve.jobs import bind_params
    from ..store import active_store
    from ..store.fingerprint import fingerprint

    if store is None:
        store = active_store() or ArtifactStore()
    # What a shard forwards is what names the campaign: a ``campaign``
    # job's params less the one that only steers its own run.
    base = bind_params("campaign", params)
    base.pop("resume", None)
    campaign = Campaign(**base)
    path_keys = [campaign.path_key(s) for s in campaign.specs]

    def make_tasks(todo: list[int], nodes: int) -> list[ClusterTask]:
        return [task_for("paths", {**base, "indices": chunk},
                         artifact_keys=tuple(path_keys[i] for i in chunk),
                         label=f"paths[{chunk[0]}..{chunk[-1]}] "
                               f"{fingerprint(chunk, kind='shard')[:8]}")
                for chunk in shard_indices(todo, SHARDS_PER_NODE * nodes)]

    _dispatch_missing(path_keys, store, "campaign_paths_local", make_tasks,
                      cluster, campaign.fingerprint(), coordinator)
    # Final assembly: merged paths are store hits, anything missing
    # (failed shards, dead nodes) recomputes locally.
    return campaign.run(store=store, workers=workers, resume=resume)


def run_clustered_fig2(n_flows: int, cluster,
                       seed: int = 0, model=None,
                       chunk_size: int | None = None,
                       min_relative_shift: float = 0.25,
                       workers: int | None = None,
                       resume: bool = False):
    """Run a §3.1 fig2 pipeline across a serve cluster;
    returns :class:`~repro.ndt.pipeline.Fig2Result`.

    The flow mirrors :func:`run_clustered_campaign`: cut the
    population into :class:`~repro.ndt.stream.ShardSpec`\\ s locally,
    dispatch the shards *not already in the local store* as
    ``fig2-shard`` tasks (each node regenerates its slice from the
    spec -- per-flow seeding means only a few integers travel), pull
    each completed partial back by content address, then assemble
    through :func:`~repro.ndt.stream.run_pipeline_streaming` against
    the local store -- merged shards are cache hits, quarantined or
    lost shards recompute locally, and the result is byte-identical to
    a serial run by construction.

    Args:
        n_flows: population size.
        cluster: node spec for :func:`parse_cluster`, or an existing
            :class:`Membership`.
        seed: population seed.
        model: must be None or the default
            :class:`~repro.ndt.synth.PopulationModel` -- custom models
            do not travel over the cluster wire.
        chunk_size: flows per shard (default
            :data:`~repro.ndt.synth.DEFAULT_CHUNK_SIZE`).
        workers: local workers for the final assembly (and any
            fallback recomputation).
        resume: forwarded to the final assembly's scheduler manifest.

    Results merge into the default store.
    """
    from ..ndt.stream import (run_pipeline_streaming, shard_specs,
                              stream_run_key)
    from ..ndt.synth import DEFAULT_CHUNK_SIZE, PopulationModel
    from ..store import active_store

    store = active_store() or ArtifactStore()
    if model is not None and model != PopulationModel():
        raise ConfigError(
            "clustered fig2 runs support only the default "
            "PopulationModel (custom models do not travel over the "
            "wire); run locally instead")
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    specs = shard_specs(n_flows, seed=seed, chunk_size=chunk_size,
                        min_relative_shift=min_relative_shift)
    keys = [spec.key() for spec in specs]

    def make_tasks(todo: list[int], nodes: int) -> list[ClusterTask]:
        return [task_for("fig2-shard",
                         {"seed": seed, "start": specs[i].start,
                          "count": specs[i].count,
                          "min_relative_shift": min_relative_shift},
                         artifact_keys=(keys[i],), label=specs[i].shard_id)
                for i in todo]

    _dispatch_missing(keys, store, "fig2_shards_local", make_tasks, cluster,
                      stream_run_key(specs), None)
    # Final assembly: merged shards are store hits, anything missing
    # (failed shards, dead nodes) recomputes locally.
    return run_pipeline_streaming(
        n_flows, seed=seed, chunk_size=chunk_size,
        min_relative_shift=min_relative_shift, workers=workers,
        store=store, resume=resume)


def cluster_evaluator(coordinator: Coordinator, store: ArtifactStore):
    """A batch evaluator for :func:`repro.qa.search.run_search` that
    farms candidate scenarios out as ``qa-eval`` jobs.

    Returns ``evaluate(scenarios) -> [(outcome, findings), ...]`` in
    submission order.  Duplicate scenarios inside one batch share one
    task (fingerprint dedup); quarantined or unmergeable evaluations
    fall back to local execution, so the search never loses a
    candidate -- and because the remote payload is the exact tuple the
    local evaluator produces, the report stays byte-identical.
    """
    def evaluate(scenarios):
        from ..qa.search import _run_search_scenario
        tasks = [task_for("qa-eval", {"scenario": s.to_dict()},
                          label=s.label()) for s in scenarios]
        records = coordinator.run(tasks)
        results = []
        for scenario, task in zip(scenarios, tasks):
            record = records[task.key]
            entry = (store.get(task.key)
                     if record.status == "done" else None)
            if isinstance(entry, dict) and "payload" in entry:
                outcome, findings = entry["payload"]
                results.append((outcome, tuple(findings)))
            else:
                results.append(_run_search_scenario(scenario))
        return results
    return evaluate


def run_clustered_search(budget: int, cluster, seed: int = 0,
                         store: ArtifactStore | None = None):
    """Run a coverage-guided search with clustered evaluation.

    Generation stays local and sequential (that is the determinism
    contract); only candidate evaluation fans out.  Returns the same
    :class:`~repro.qa.search.SearchReport` a serial run produces.
    """
    from ..qa.search import run_search

    if store is None:
        from ..store import active_store
        store = active_store() or ArtifactStore()
    return run_search(budget, seed=seed,
                      evaluate=cluster_evaluator(
                          _coordinator(cluster, store), store))

"""Job execution for the experiment service.

Two layers live here:

* **Executors** -- one module-level function per job kind,
  ``execute_x(store, workers, *, name: type = default, ...) ->
  (summary, payload)``.  Its keyword-only parameters *are* the kind:
  the params a request may carry, which :func:`bind_params` holds it
  to at admission.  The summary is the JSON document returned over
  HTTP; the payload is the full result object, stored in the artifact
  store under the request fingerprint.
  Executors run on a thread executor and reuse the existing batch
  machinery (:class:`repro.core.campaign.Campaign`,
  :func:`repro.ndt.stream.run_pipeline_streaming`,
  :func:`repro.experiments.runner.sweep`,
  :func:`repro.qa.search.run_search`), always passing the service's store
  through -- so campaign jobs checkpoint per path and a killed server
  resumes them.

* **JobManager** -- admission and lifecycle.  On submit it
  fingerprints the request; a completed fingerprint is answered
  directly from the store (no execution), an identical in-flight
  fingerprint coalesces onto the running job (one execution, every
  waiter gets the result), and everything else is journaled and
  enqueued.  Worker coroutines drain the queue, run executors with a
  per-job timeout, and write results back to the store.  ``drain``
  implements graceful shutdown: stop admitting, let in-flight jobs
  finish (or stay checkpointed), and leave undone journal entries for
  the next server start to re-enqueue.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import functools
import inspect
import json
import time
from typing import Annotated, Callable, get_args

from ..core.axes import Axis, declared
from ..core.campaign import Campaign
from ..errors import ConfigError, ReproError
from ..ndt.synth import DEFAULT_CHUNK_SIZE
from ..obs.metrics import REGISTRY as _METRICS
from ..store.artifacts import ArtifactStore
from ..store.atomic import atomic_write_json
from ..store.fingerprint import fingerprint
from .protocol import NONSEMANTIC_PARAMS, Job, JobRequest, JobState
from .queue import JobQueue, QueueFull

_JOURNAL_VERSION = 1


class ServiceDraining(ReproError):
    """The service is draining and no longer admits jobs."""


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

#: ``Annotated[number type, exclusive lower bound]``: the ranges the
#: signatures below put on a number.
Count = Annotated[int, 0]
Index = Annotated[int, -1]
Positive = Annotated[float, 0]


def execute_campaign(store, workers, *, n_paths: Count = 40,
                     seed: Index = 0, duration: Positive = 30.0,
                     fq_fraction: float = 0.3, resume: bool = False,
                     **axes: Axis) -> tuple[dict, object]:
    """``campaign`` jobs: a §3.2-style measurement study (E7).

    Runs through :meth:`Campaign.run` with the service's store, so
    every completed path checkpoints and an interrupted job resumes.
    ``axes`` are the run- and path-level axes of :mod:`repro.core.axes`.
    """
    campaign = Campaign(n_paths=n_paths, seed=seed, duration=duration,
                        fq_fraction=fq_fraction, **axes)
    result = campaign.run(store=store, workers=workers, resume=resume)
    outcome = [{"contending": r.verdict.contending,
                "category": r.verdict.category,
                "mean_elasticity": r.verdict.mean_elasticity}
               for r in result.results]
    summary = {
        "n_paths": len(result.results) + len(result.failed),
        "n_failed": len(result.failed),
        "fraction_contending": result.fraction_contending,
        "true_fraction_contending": result.true_fraction_contending,
        "detector_quality": result.detector_quality(),
        "result_fingerprint": fingerprint(outcome,
                                          kind="campaign-outcome"),
    }
    return summary, result


def execute_paths(store, workers, *, n_paths: Count = 40,
                  seed: Index = 0, duration: Positive = 30.0,
                  fq_fraction: float = 0.3,
                  indices: Annotated[list, "n_paths"],
                  **axes: Axis) -> tuple[dict, object]:
    """``paths`` jobs: one shard of a campaign -- a subset of its
    paths, named by index.

    The cluster coordinator's unit of dispatch: the node rebuilds the
    full campaign from the same params a ``campaign`` job takes, runs
    only ``indices``, and checkpoints every path under the exact store
    key the coordinator computed -- which is what makes the shard's
    results pullable (and the merge idempotent) by content address.
    """
    if store is None:
        raise ConfigError("'paths' jobs need a store (the shard's "
                          "results travel by content address)")
    campaign = Campaign(n_paths=n_paths, seed=seed, duration=duration,
                        fq_fraction=fq_fraction, **axes)
    shard_key = fingerprint(
        {"campaign": campaign.fingerprint(), "indices": list(indices)},
        kind="paths-shard")
    report = campaign.run_stored(store, indices, shard_key,
                                 workers=workers)
    keys = [campaign.path_key(campaign.specs[i]) for i in indices]
    failed = [{"index": indices[o.index], "error": o.error,
               "error_type": o.error_type, "attempts": o.attempts}
              for o in report.failed]
    done_keys = [k for k, r in zip(keys, report.results)
                 if r is not None]
    summary = {
        "campaign": campaign.fingerprint(),
        "indices": list(indices),
        "done": len(done_keys),
        "failed": failed,
        "path_keys": done_keys,
        "cache_hits": report.hits,
    }
    return summary, {"path_keys": done_keys, "failed": failed}


def execute_qa_eval(store, workers, *,
                    scenario: dict) -> tuple[dict, object]:
    """``qa-eval`` jobs: run + judge one search candidate scenario.

    The cluster fabric's unit of dispatch for ``repro qa search
    --cluster``: the coordinator generates candidates (the sequential,
    deterministic part) and farms evaluation out.  The payload is the
    exact ``(outcome, findings)`` tuple the local evaluator would have
    produced, so a clustered search report is byte-identical to a
    serial one.
    """
    from ..qa.scenario import Scenario
    from ..qa.search import _run_search_scenario

    try:
        candidate = Scenario.from_dict(scenario)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario document: {exc}")
    outcome, findings = _run_search_scenario(candidate)
    summary = {
        "scenario": candidate.label(),
        "failed": bool(findings),
        "findings": [str(f) for f in findings],
    }
    return summary, (outcome, findings)


def execute_fig2_shard(store, workers, *, seed: Index = 0,
                       start: Index = 0, count: Count = 2000,
                       min_relative_shift: Positive = 0.25
                       ) -> tuple[dict, object]:
    """``fig2-shard`` jobs: one shard of a §3.1 pipeline run.

    The cluster coordinator's unit of dispatch for ``repro run fig2
    --cluster``: the node rebuilds the :class:`~repro.ndt.stream.
    ShardSpec` from the same params the coordinator used, analyses it,
    and stores the partial under the spec's own content key --
    which is what makes the shard pullable (and the merge idempotent)
    by content address.  Only the default :class:`PopulationModel`
    travels over the wire.
    """
    from ..ndt.stream import ShardSpec, analyse_shard

    if store is None:
        raise ConfigError("'fig2-shard' jobs need a store (the shard's "
                          "partial travels by content address)")
    spec = ShardSpec(seed=seed, start=start, count=count,
                     min_relative_shift=min_relative_shift)
    key = spec.key()
    partial = store.get(key)
    cached = partial is not None
    if not cached:
        partial = analyse_shard(spec)
        store.put(key, partial, kind="fig2-shard", label=spec.shard_id)
    summary = {
        "shard_id": spec.shard_id,
        "shard_key": key,
        "total": partial.total,
        "remaining_with_shifts": partial.remaining_with_shifts,
        "cached": cached,
        "aggregate_fingerprint": partial.aggregate_fingerprint(),
    }
    return summary, {"shard_key": key}


def execute_pipeline(store, workers, *, flows: Count = 2000,
                     seed: Index = 0,
                     min_relative_shift: Positive = 0.25,
                     chunk_size: Count = DEFAULT_CHUNK_SIZE,
                     resume: bool = False) -> tuple[dict, object]:
    """``pipeline`` jobs: the §3.1 passive NDT pipeline over a
    synthetic dataset (Figure 2).

    The run is sharded at every size -- bounded memory, per-shard
    store checkpoints, aggregates byte-identical for any sharding;
    ``chunk_size`` sets the shard size.
    """
    from ..ndt.stream import run_pipeline_streaming

    result = run_pipeline_streaming(
        flows, seed=seed, chunk_size=chunk_size,
        min_relative_shift=min_relative_shift,
        workers=workers, store=store, resume=resume)
    summary = {
        "total": result.total,
        "counts": {getattr(cat, "name", str(cat)): n
                   for cat, n in sorted(result.counts.items(),
                                        key=lambda kv: str(kv[0]))},
        "remaining_with_shifts": result.remaining_with_shifts,
        "aggregate_fingerprint": result.aggregate_fingerprint(),
    }
    return summary, result


def execute_experiment(store, workers, *, experiment: str,
                       smoke: bool = False,
                       params: dict = {}) -> tuple[dict, object]:
    """``experiment`` jobs: any registered experiment by name, with
    ``params`` as overrides of its ``run()`` keywords."""
    from ..experiments import resolve

    run_fn, run_params, _ = resolve(
        experiment, smoke, given=params,
        offered={} if workers is None else {"workers": workers})
    result = run_fn(**run_params)
    summary = {
        "experiment": result.experiment,
        "metrics": dict(result.metrics),
        "elapsed_s": result.elapsed_s,
    }
    return summary, result


def _run_sweep_point(value, experiment: str, param: str, base: dict):
    """Module-level (picklable, fingerprintable) sweep task body."""
    from ..experiments import EXPERIMENTS
    return EXPERIMENTS[experiment](**{**base, param: value})


def execute_sweep(store, workers, *, experiment: str, param: str,
                  values: list, base: dict = {}) -> tuple[dict, object]:
    """``sweep`` jobs: one experiment across a parameter range."""
    from ..experiments import resolve
    from ..experiments.runner import sweep

    resolve(experiment)
    task = functools.partial(_run_sweep_point, experiment=experiment,
                             param=param, base=base)
    rows = sweep(list(values), task, label=param, workers=workers,
                 store=store)
    return {"experiment": experiment, "param": param, "rows": rows}, rows


def execute_qa_search(store, workers, *, budget: Count = 50,
                      seed: Index = 0) -> tuple[dict, object]:
    """``qa-search`` jobs: a coverage-guided search campaign."""
    from ..qa.search import run_search

    report = run_search(budget, seed=seed, workers=workers)
    summary = {
        "budget": budget,
        "seed": seed,
        "coverage": report.feature_map.coverage,
        "min_confidence": report.feature_map.min_confidence(),
        "corpus_size": len(report.corpus),
        "failures": [f.to_dict() for f in report.failures],
        "reproduced": len(report.reproduced_failures),
    }
    return summary, report.to_dict()


def execute_qa_envelope(store, workers, *, budget: Count = 50,
                        seed: Index = 0) -> tuple[dict, object]:
    """``qa-envelope`` jobs: the robustness-envelope artifact.

    The artifact itself is store-cached under its own key (seed,
    budget, detector config, oracle-suite version), so a
    resubmission with equal params -- even under a different serve
    request id -- is a search-free cache hit.
    """
    from ..qa.search import run_envelope

    artifact, cached = run_envelope(budget, seed=seed, store=store,
                                    workers=workers)
    failing = sum(1 for s in artifact["cells"].values() if not s["pass"])
    summary = {
        "budget": budget,
        "seed": seed,
        "coverage": artifact["coverage"],
        "failing_cells": failing,
        "min_confidence": artifact["min_confidence"],
        "fingerprint": artifact["fingerprint"],
        "cached": cached,
    }
    return summary, artifact


#: Kind -> executor.  Tests may register extra kinds (one that declares
#: ``**params`` takes anything); admission binds against this table.
EXECUTORS: dict[str, Callable] = {
    "campaign": execute_campaign,
    "paths": execute_paths,
    "pipeline": execute_pipeline,
    "fig2-shard": execute_fig2_shard,
    "experiment": execute_experiment,
    "sweep": execute_sweep,
    "qa-search": execute_qa_search,
    "qa-eval": execute_qa_eval,
    "qa-envelope": execute_qa_envelope,
}


def _checked(name: str, value, annotation, sibling):
    """``value`` as the executor takes it, or :class:`ConfigError`.

    ``float`` takes any real number (and hands on a float, so ``30``
    and ``30.0`` name one campaign), no number takes a ``bool``, a
    ``str`` or ``list`` may not be empty; ``Annotated`` adds a
    number's exclusive lower bound or, on a list, the name of the
    param (read through ``sibling``) its distinct integer elements
    index into.
    """
    if annotation is inspect.Parameter.empty:
        return value
    kind, *extra = get_args(annotation) or (annotation,)
    number, sized = kind in (int, float), kind in (str, list)
    accepted = {float: (int, float), list: (list, tuple)}.get(kind, kind)
    if (not isinstance(value, accepted)
            or number and isinstance(value, bool)
            or sized and not value):
        raise ConfigError(f"param {name!r} must be "
                          f"{'a non-empty' if sized else 'of type'} "
                          f"{kind.__name__}: {value!r}")
    if extra and number and not value > extra[0]:
        raise ConfigError(f"param {name!r} must be "
                          + (f">= {extra[0] + 1}" if kind is int
                             else f"> {extra[0]}") + f": {value!r}")
    if extra and kind is list:
        limit = sibling(extra[0])
        if not (all(isinstance(i, int) and not isinstance(i, bool)
                    and 0 <= i < limit for i in value)
                and len(set(value)) == len(value)):
            raise ConfigError(f"param {name!r} must hold distinct "
                              f"indices in [0, {limit}): {value!r}")
    return float(value) if kind is float else value


#: An executor's evaluated signature, built once: ``inspect`` takes
#: ~90 us, which every submission (cache hits included) would pay.
_declaration = functools.cache(
    functools.partial(inspect.signature, eval_str=True))


def bind_params(kind: str, params) -> dict:
    """The keyword arguments ``EXECUTORS[kind]`` takes for ``params``.

    The executor's keyword-only parameters are the kind's declaration:
    a name it does not declare, a value its annotation does not admit
    (see :func:`_checked`) or a missing param that has no default is a
    :class:`ConfigError`.  A ``**axes: Axis`` catch-all takes the run-
    and path-level axes of :mod:`repro.core.axes`, each validated by
    its own declaration; an unannotated catch-all takes anything.
    :data:`NONSEMANTIC_PARAMS` are accepted for every kind and not
    handed on.
    """
    if kind not in EXECUTORS:
        raise ConfigError(f"unknown job kind {kind!r}; "
                          f"try: {', '.join(sorted(EXECUTORS))}")
    signature = _declaration(EXECUTORS[kind])
    given = {k: v for k, v in params.items()
             if k not in NONSEMANTIC_PARAMS}
    known, bound = [], {}
    for name, param in signature.parameters.items():
        if param.kind is param.KEYWORD_ONLY:
            known.append(name)
            if name in given:
                bound[name] = _checked(
                    name, given.pop(name), param.annotation,
                    lambda ref: bound.get(
                        ref, signature.parameters[ref].default))
            elif param.default is param.empty:
                raise ConfigError(f"{kind!r} jobs need param {name!r}")
        elif param.kind is param.VAR_KEYWORD and param.annotation is Axis:
            for axis in declared("run", "path"):
                known.append(axis.name)
                if axis.name in given:
                    bound[axis.name] = axis.validate(given.pop(axis.name))
        elif param.kind is param.VAR_KEYWORD:
            bound.update(given)
            given.clear()
    if given:
        raise ConfigError(
            f"{kind!r} jobs take no param {', '.join(sorted(given))}; "
            f"known: {', '.join(known)}")
    return bound


# ---------------------------------------------------------------------------
# JobManager
# ---------------------------------------------------------------------------


class JobManager:
    """Admission, coalescing, execution, and drain for serve jobs.

    Args:
        store: artifact store for cache hits, result persistence, and
            the admission journal; ``None`` disables all three (jobs
            still coalesce while in flight).
        queue_depth: bounded queue size (backpressure point).
        concurrency: worker coroutines / executor threads running jobs.
        job_workers: ``workers`` passed into each executor (process
            fan-out inside a job); ``None`` defers to ``REPRO_WORKERS``.
        timeout_s: per-job wall-clock deadline (``None`` = unlimited).
        clock: time source for job stamps (injectable for tests).
    """

    def __init__(self, store: ArtifactStore | None = None,
                 queue_depth: int = 64, concurrency: int = 2,
                 job_workers: int | None = None,
                 timeout_s: float | None = None,
                 clock: Callable[[], float] = time.time):
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigError(f"timeout_s must be > 0: {timeout_s}")
        self.store = store
        self.queue = JobQueue(queue_depth, concurrency=concurrency)
        self.concurrency = concurrency
        self.job_workers = job_workers
        self.timeout_s = timeout_s
        self.clock = clock
        self.jobs: dict[str, Job] = {}
        self.inflight: dict[str, Job] = {}
        self.running: set[str] = set()
        self.draining = False
        self._metrics = _METRICS.scoped("serve")
        self._workers: list[asyncio.Task] = []
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None

    # -- journal ---------------------------------------------------------

    def _journal_path(self, key: str):
        assert self.store is not None
        return self.store.root / "serve" / "journal" / f"{key}.json"

    def _journal_write(self, job: Job) -> None:
        if self.store is not None:
            atomic_write_json(self._journal_path(job.key), {
                "version": _JOURNAL_VERSION,
                "request": job.request.to_dict(),
                "admitted": job.created,
            })

    def _journal_remove(self, key: str) -> None:
        if self.store is not None:
            with contextlib.suppress(OSError):
                self._journal_path(key).unlink(missing_ok=True)

    def resume_journal(self) -> list[Job]:
        """Re-admit every journaled (admitted but unfinished) request.

        Called on server start: a server killed mid-job left its
        journal entries behind, and their per-task results are already
        checkpointed in the store, so re-admission completes them
        cheaply (fully-finished entries come straight back as cache
        hits).  Invalid entries are dropped; a full queue leaves the
        remaining entries for the next start.
        """
        if self.store is None:
            return []
        resumed = []
        for path in sorted(self._journal_path("*").parent.glob("*.json")):
            try:
                with open(path) as f:
                    entry = json.load(f)
                if entry.get("version") != _JOURNAL_VERSION:
                    raise ValueError("journal version mismatch")
                job, _ = self.submit(
                    JobRequest.from_dict(entry["request"]))
            except QueueFull:
                break  # keep the rest journaled for the next start
            except (OSError, ValueError, KeyError, ConfigError):
                # unreadable, or admitted by a server that still took it
                path.unlink(missing_ok=True)
                continue
            self._metrics.counter("jobs_resumed").inc()
            resumed.append(job)
        return resumed

    # -- admission -------------------------------------------------------

    def submit(self, request: JobRequest) -> tuple[Job, str]:
        """Admit one request.

        Returns ``(job, disposition)`` where disposition is one of
        ``"cached"`` (answered from the store, no execution),
        ``"coalesced"`` (attached to an identical in-flight job), or
        ``"queued"``.

        Raises:
            ServiceDraining: the manager no longer admits work.
            ConfigError: unknown kind or invalid params.
            QueueFull: backpressure; carries a Retry-After estimate.
        """
        if self.draining:
            raise ServiceDraining("service is draining; retry later")
        bind_params(request.kind, request.params)
        key = request.fingerprint()
        now = self.clock()
        if self.store is not None:
            entry = self.store.get(key)
            if isinstance(entry, dict) and "summary" in entry:
                job = Job(request=request, key=key, created=now,
                          cached=True, summary=entry["summary"])
                job.transition(JobState.DONE, now)
                self.jobs[job.id] = job
                self._metrics.counter("jobs_cached").inc()
                return job, "cached"
        existing = self.inflight.get(key)
        if existing is not None and not existing.terminal:
            existing.waiters += 1
            existing.version += 1
            self._metrics.counter("jobs_coalesced").inc()
            return existing, "coalesced"
        job = Job(request=request, key=key, created=now)
        self.queue.put_nowait(job)  # may raise QueueFull
        self.jobs[job.id] = job
        self.inflight[key] = job
        self._journal_write(job)
        self._metrics.counter("jobs_admitted").inc()
        self._metrics.counter(f"kind.{request.kind}.admitted").inc()
        self._metrics.gauge("queue_depth").set(len(self.queue))
        return job, "queued"

    def get_job(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> tuple[bool, str]:
        """Cancel a queued job; running/terminal jobs refuse.

        Returns ``(ok, reason)``.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return False, "not found"
        if job.terminal:
            return False, f"already {job.state}"
        if job.state == JobState.RUNNING:
            return False, "already running"
        job.transition(JobState.CANCELLED, self.clock())
        self.inflight.pop(job.key, None)
        self._journal_remove(job.key)
        self._metrics.counter("jobs_cancelled").inc()
        return True, "cancelled"

    def stats(self) -> dict:
        """Live counters for ``/healthz``."""
        return {
            "queued": len(self.queue),
            "running": len(self.running),
            "jobs": len(self.jobs),
            "draining": self.draining,
        }

    # -- execution -------------------------------------------------------

    async def start(self) -> list[Job]:
        """Spawn worker coroutines and resume the admission journal."""
        if self._executor is None:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.concurrency,
                thread_name_prefix="repro-serve")
        resumed = self.resume_journal()
        for _ in range(self.concurrency - len(self._workers)):
            self._workers.append(asyncio.ensure_future(self._worker()))
        return resumed

    async def _worker(self) -> None:
        while True:
            job = await self.queue.get()
            self._metrics.gauge("queue_depth").set(len(self.queue))
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        now = self.clock()
        self._metrics.histogram("queue_wait_s").observe(
            max(0.0, now - job.created))
        job.transition(JobState.RUNNING, now)
        self.running.add(job.id)
        self._metrics.gauge("running").set(len(self.running))
        loop = asyncio.get_running_loop()
        body = functools.partial(
            EXECUTORS[job.request.kind], self.store, self.job_workers,
            **bind_params(job.request.kind, job.request.params))
        try:
            future = loop.run_in_executor(self._executor, body)
            summary, payload = await asyncio.wait_for(
                future, timeout=self.timeout_s)
        except asyncio.TimeoutError:
            # The thread cannot be interrupted, but job-level progress
            # is checkpointed in the store, so a resubmission resumes.
            job.error = (f"job exceeded {self.timeout_s:g}s deadline "
                         "(partial progress is checkpointed)")
            job.error_type = "TimeoutError"
            job.transition(JobState.TIMEOUT, self.clock())
            self._journal_remove(job.key)
            self._metrics.counter("jobs_timeout").inc()
        except asyncio.CancelledError:
            # Drain cancelled the worker mid-wait: the executor thread
            # finishes on its own and the journal entry survives, so a
            # restarted server resumes this job.
            raise
        except Exception as exc:
            job.error = str(exc)
            job.error_type = type(exc).__name__
            job.transition(JobState.FAILED, self.clock())
            self._journal_remove(job.key)
            self._metrics.counter("jobs_failed").inc()
            self._metrics.counter(f"kind.{job.request.kind}.failed").inc()
        else:
            job.summary = summary
            if self.store is not None:
                self.store.put(job.key,
                               {"summary": summary, "payload": payload},
                               kind="serve-job",
                               label=f"{job.request.kind} {job.id}")
            job.transition(JobState.DONE, self.clock())
            self._journal_remove(job.key)
            self._metrics.counter("jobs_executed").inc()
            self._metrics.counter(f"kind.{job.request.kind}.done").inc()
            self._metrics.histogram("job_s").observe(
                max(0.0, job.finished - job.started))
            self.queue.observe_latency(job.finished - job.started)
        finally:
            self.running.discard(job.id)
            self._metrics.gauge("running").set(len(self.running))
            if self.inflight.get(job.key) is job:
                self.inflight.pop(job.key, None)

    # -- shutdown --------------------------------------------------------

    async def drain(self, grace_s: float = 30.0) -> bool:
        """Graceful shutdown: stop admitting, let work finish.

        Waits up to ``grace_s`` for the queue and running set to empty.
        Jobs still unfinished at the deadline keep their journal
        entries (and their store checkpoints), so the next server start
        re-admits and resumes them.  Returns True on a clean drain.
        """
        self.draining = True
        deadline = time.monotonic() + max(0.0, grace_s)
        while (len(self.queue) or self.running) \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        clean = not len(self.queue) and not self.running
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=clean)
            self._executor = None
        return clean

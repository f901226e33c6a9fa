"""Process-pool parallel map with deterministic, ordered results.

Design notes
------------

* **One loop, two orders.**  :meth:`ParallelExecutor.map` and
  :meth:`ParallelExecutor.imap_tasks` share one private chunk loop that
  yields each chunk's results: ``map`` collects the chunks in
  submission order, so ``parallel_map(f, xs)`` is a drop-in
  replacement for ``[f(x) for x in xs]`` and its first failure is
  always the lowest index; ``imap_tasks`` takes them in completion
  order, so a checkpointing caller persists each one as it lands.
* **Determinism.**  The pool adds no randomness of its own: as long as
  ``fn`` is a pure function of its item (every item carries its own
  seed -- see :func:`derive_seed`), serial and parallel runs produce
  bit-for-bit identical result lists.
* **Serial fallback.**  ``workers <= 1``, a single-item workload,
  unpicklable work (closures, lambdas), an unavailable pool (restricted
  sandboxes without semaphores), or running *inside* a pool worker all
  fall back to the plain serial loop -- correctness never depends on
  the pool, so doctests, Windows ``spawn``, and CI stay correct.  A
  worker that dies mid-run (OOM kill) costs only the chunks it left
  unfinished: the loop recomputes those serially.
* **Warm forks.**  A pool forks its workers from the caller as it
  stands when the first chunk is submitted, and lives only as long as
  its executor (one ``parallel_map`` call, one scheduler run), so
  whatever a task does once per process -- a lazy import above all --
  is paid again by every child of every pool.  The contract: work a
  task needs only once goes in the parent, before the fork.  A caller
  that fans simulations out loads their backend first
  (:func:`repro.core.axes.preload_backend`: ``Campaign``, the QA
  search, E16), the modules behind lazy numpy attributes
  (``numpy.fft``, ``numpy.random``) are imported at module level where
  they are used, and the probe's and the NDT pipeline's medians do not
  reach ``numpy.ma`` (:func:`repro.analysis.stats.median`).
  ``tests/test_runtime.py`` checks that their children import nothing.
* **Fault tolerance.**  :meth:`ParallelExecutor.imap_tasks` applies a
  :class:`FaultPolicy` -- per-task retry with exponential backoff and a
  per-task wall-clock timeout -- and yields a :class:`TaskOutcome` per
  item instead of raising, so one persistently failing task quarantines
  instead of killing a thousand-task campaign.  ``REPRO_FAULT_RATE``
  injects deterministic pseudo-random faults before task bodies, which
  is how the retry path is exercised in tests and CI.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import hashlib
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ..errors import ConfigError, ReproError
from ..obs.metrics import REGISTRY as _METRICS

#: Environment variable consulted when no explicit worker count is given.
DEFAULT_WORKERS_ENV = "REPRO_WORKERS"

#: Probability (0..1) of injecting a fault before each task attempt.
#: Deterministic per (task label, attempt): the same campaign under the
#: same rate always fails -- and recovers -- identically.
FAULT_RATE_ENV = "REPRO_FAULT_RATE"


class InjectedFault(ReproError):
    """A fault injected by ``REPRO_FAULT_RATE`` (testing hook)."""


class TaskTimeout(ReproError):
    """A task exceeded its :attr:`FaultPolicy.timeout_s` deadline."""

#: Environment marker set inside pool workers so nested ``parallel_map``
#: calls (a parallel sweep of parallel campaigns) degrade to serial
#: instead of forking pools from pool workers.
_IN_WORKER_ENV = "REPRO_IN_POOL_WORKER"


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count.

    Precedence: the explicit ``workers`` argument, then the
    ``REPRO_WORKERS`` environment variable, then ``os.cpu_count()``.
    The result is always >= 1.
    """
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(DEFAULT_WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(
                f"{DEFAULT_WORKERS_ENV} must be an integer: {env!r}")
    return os.cpu_count() or 1


def derive_seed(base_seed: int, index: int, name: str = "task") -> int:
    """Deterministic 63-bit child seed for task ``index``.

    Uses the same hash-derivation scheme as :mod:`repro.sim.rng` so
    child streams are independent of each other and stable across
    worker counts and Python hash randomization.
    """
    digest = hashlib.sha256(f"{base_seed}:{name}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


@dataclass(frozen=True)
class FaultPolicy:
    """Retry/timeout policy for fault-tolerant task execution.

    Attributes:
        retries: additional attempts after the first failure.
        backoff_s: sleep before the first retry; each further retry
            multiplies it by ``backoff_factor`` (exponential backoff).
        backoff_factor: backoff growth per retry.
        timeout_s: per-attempt wall-clock deadline, enforced via
            ``SIGALRM`` on the POSIX main thread; anywhere else the
            deadline is unenforced and a one-time ``RuntimeWarning``
            says so.  ``None`` disables the deadline.
    """

    retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    timeout_s: float | None = None

    def __post_init__(self):
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0: {self.retries}")
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ConfigError(
                f"invalid backoff: {self.backoff_s}/{self.backoff_factor}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError(f"timeout_s must be > 0: {self.timeout_s}")


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one fault-tolerant task.

    Attributes:
        index: the item's position in the submitted sequence.
        label: the task's display/quarantine label.
        ok: True when some attempt succeeded.
        value: the task's return value (None on failure).
        attempts: attempts consumed (1 = first try succeeded).
        error: failure message of the last attempt ("" on success).
        error_type: exception class name of the last attempt.
    """

    index: int
    label: str
    ok: bool
    value: object = None
    attempts: int = 1
    error: str = ""
    error_type: str = ""


def fault_rate() -> float:
    """The injected-fault probability from ``REPRO_FAULT_RATE``."""
    env = os.environ.get(FAULT_RATE_ENV)
    if not env:
        return 0.0
    try:
        rate = float(env)
    except ValueError:
        raise ConfigError(f"{FAULT_RATE_ENV} must be a float: {env!r}")
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"{FAULT_RATE_ENV} must be in [0, 1]: {rate}")
    return rate


def _maybe_inject_fault(label: str, attempt: int) -> None:
    """Raise :class:`InjectedFault` pseudo-randomly but deterministically.

    The decision hashes (label, attempt), so a given task fails on the
    same attempts every run -- and, because the attempt number is part
    of the hash, a retry of a failed attempt can succeed.
    """
    rate = fault_rate()
    if rate <= 0.0:
        return
    digest = hashlib.sha256(f"fault:{label}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "little") / 2**64
    if fraction < rate:
        _METRICS.counter("pool.injected_faults").inc()
        raise InjectedFault(
            f"injected fault on {label!r} attempt {attempt + 1}")


#: One-time flag: warn only once per process when a requested deadline
#: cannot be enforced (non-POSIX, or a non-main thread such as the
#: serve thread executor).
_DEADLINE_WARNED = False


@contextlib.contextmanager
def _task_deadline(seconds: float | None):
    """Enforce a wall-clock deadline via ``SIGALRM`` where possible.

    Simulation tasks are CPU-bound pure Python, so a cooperative
    thread-based timeout could never interrupt them; a real signal can.
    ``SIGALRM`` only works on the Unix main thread, so when a deadline
    is requested anywhere else -- pool tasks running serially inside
    the serve thread executor are the common case -- the deadline
    degrades to a no-op with a one-time :class:`RuntimeWarning`
    (callers such as :class:`repro.serve.jobs.JobManager` layer their
    own job-level timeout on top).
    """
    if seconds is None:
        yield
        return
    usable = (hasattr(signal, "SIGALRM")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        global _DEADLINE_WARNED
        if not _DEADLINE_WARNED:
            _DEADLINE_WARNED = True
            import warnings
            warnings.warn(
                f"task deadline of {seconds:g}s cannot be enforced "
                "outside the POSIX main thread; tasks run without a "
                "deadline (enforce timeouts at the caller, e.g. the "
                "serve job timeout)", RuntimeWarning, stacklevel=3)
        yield
        return

    def _on_alarm(signum, frame):
        raise TaskTimeout(f"task exceeded {seconds:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class _PolicyTask:
    """Picklable wrapper running one task under a :class:`FaultPolicy`.

    Called with ``(index, label, item)`` tuples; never raises for task
    failures -- every path returns a :class:`TaskOutcome`, so pool
    workers stay alive and exception picklability never matters.
    """

    def __init__(self, fn: Callable, policy: FaultPolicy | None):
        self.fn = fn
        self.policy = policy if policy is not None else FaultPolicy()

    def __call__(self, task: tuple) -> TaskOutcome:
        index, label, item = task
        policy = self.policy
        delay = policy.backoff_s
        error, error_type = "", ""
        attempts = 0
        for attempt in range(policy.retries + 1):
            attempts = attempt + 1
            try:
                with _task_deadline(policy.timeout_s):
                    _maybe_inject_fault(label, attempt)
                    value = _apply_timed(self.fn, item)
                return TaskOutcome(index=index, label=label, ok=True,
                                   value=value, attempts=attempts)
            except TaskTimeout as exc:
                _METRICS.counter("pool.timeouts").inc()
                error, error_type = str(exc), type(exc).__name__
            except Exception as exc:
                error, error_type = str(exc), type(exc).__name__
            if attempt < policy.retries:
                _METRICS.counter("pool.retries").inc()
                if delay > 0:
                    time.sleep(delay)
                    delay *= policy.backoff_factor
        _METRICS.counter("pool.task_failures").inc()
        return TaskOutcome(index=index, label=label, ok=False,
                           attempts=attempts, error=error,
                           error_type=error_type)


def _auto_chunk_size(total: int, workers: int) -> int:
    """Chunk so each worker sees several chunks (load balancing) while
    amortizing IPC for large, cheap-per-item workloads."""
    return max(1, total // (workers * 8))


def _mark_worker() -> None:
    """Pool initializer: tag the process so nested maps stay serial."""
    os.environ[_IN_WORKER_ENV] = "1"


def _apply_timed(fn: Callable, item):
    """Run one task, recording wall time into the process registry."""
    t0 = time.perf_counter()
    result = fn(item)
    _METRICS.histogram("pool.task_s").observe(time.perf_counter() - t0)
    _METRICS.counter("pool.tasks").inc()
    return result


def _run_chunk(apply: Callable, chunk: Sequence) -> tuple[list, dict]:
    """Worker-side body: ``apply`` each item of one chunk.

    Returns the chunk's results plus a snapshot of the metrics the
    chunk produced in this worker process.  The worker registry is
    reset per chunk, so the parent can merge every returned snapshot
    without double counting (the merge is commutative: counters and
    histogram buckets add, gauges take the max, so reassembly order
    does not matter).
    """
    _METRICS.reset()
    results = [apply(item) for item in chunk]
    return results, _METRICS.snapshot()


def _is_picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


class ParallelExecutor:
    """Reusable process-pool mapper.

    Args:
        workers: worker processes; ``None`` defers to
            :func:`resolve_workers` (``REPRO_WORKERS`` env var, then
            CPU count).  ``workers <= 1`` never creates a pool.
        chunk_size: items per dispatched task; ``None`` picks a size
            that gives each worker several chunks.

    Use as a context manager (or call :meth:`close`) to release the
    pool; a one-shot convenience wrapper is :func:`parallel_map`.

    Work a task needs only once per process (an import, a table built
    on first use) goes in the caller, before the first ``map`` forks
    the workers; done inside the task, every worker pays it again (see
    "Warm forks" above).

    >>> with ParallelExecutor(workers=1) as ex:
    ...     ex.map(abs, [-1, -2, 3])
    [1, 2, 3]
    """

    def __init__(self, workers: int | None = None,
                 chunk_size: int | None = None):
        self.workers = resolve_workers(workers)
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1: {chunk_size}")
        self.chunk_size = chunk_size
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    # -- pool lifecycle --------------------------------------------------

    @property
    def serial(self) -> bool:
        """True when this executor will never use a process pool."""
        return self.workers <= 1 or os.environ.get(_IN_WORKER_ENV) == "1"

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers, initializer=_mark_worker)
        return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- the chunk loop --------------------------------------------------

    def _chunk_results(self, apply: Callable, items: Sequence, size: int,
                       ordered: bool) -> Iterator[list]:
        """Yield the results of ``apply`` over ``items``, chunk by chunk.

        Chunks of ``size`` items go to the pool and come back in
        submission order when ``ordered``, in completion order
        otherwise.  On the serial path (see :attr:`serial`, plus a
        single item, unpicklable work or a pool that will not start)
        every item is its own chunk, in order.  An exception from
        ``apply`` cancels the chunks not yet started and propagates.
        """
        futures: dict[concurrent.futures.Future, int] = {}
        if not (self.serial or len(items) <= 1 or not _is_picklable(apply)
                or not _is_picklable(items[0])):
            try:
                pool = self._ensure_pool()
                for start in range(0, len(items), size):
                    futures[pool.submit(_run_chunk, apply,
                                        items[start:start + size])] = start
            except (OSError, ValueError, RuntimeError):
                # Pool could not be created (restricted environment) --
                # correctness over speed.
                self.close()
                futures = {}
        leftover: Iterable[int] = range(len(items))
        if futures:
            try:
                for future in (list(futures) if ordered else
                               concurrent.futures.as_completed(futures)):
                    results, worker_metrics = future.result()
                    del futures[future]
                    _METRICS.merge(worker_metrics)
                    yield results
                return
            except concurrent.futures.process.BrokenProcessPool:
                # A worker died (OOM-killed, sandbox limits): recompute
                # the chunks it left unfinished serially.
                self.close()
                leftover = [i for start in sorted(futures.values())
                            for i in range(start,
                                           min(start + size, len(items)))]
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
        for i in leftover:
            yield [apply(items[i])]

    # -- mapping ---------------------------------------------------------

    def map(self, fn: Callable, items: Iterable, progress=None) -> list:
        """Apply ``fn`` to every item, returning results in order.

        ``progress``, if given, is called as ``progress(done, total)``
        with the cumulative number of collected items -- after every
        item in serial mode, after every chunk in parallel mode.

        Exceptions raised by ``fn`` propagate to the caller in both
        modes; chunks are collected in order, so the one that surfaces
        is always the lowest failing index.
        """
        items = list(items)
        total = len(items)
        size = self.chunk_size or _auto_chunk_size(total, self.workers)
        results: list = []
        for chunk in self._chunk_results(
                functools.partial(_apply_timed, fn), items, size,
                ordered=True):
            results.extend(chunk)
            if progress is not None:
                progress(len(results), total)
        return results

    # -- fault-tolerant task execution -----------------------------------

    def imap_tasks(self, fn: Callable, items: Iterable,
                   policy: FaultPolicy | None = None,
                   labels: Sequence[str] | None = None
                   ) -> Iterator[TaskOutcome]:
        """Run tasks under a :class:`FaultPolicy`, yielding outcomes
        **as they complete** (unordered; see :attr:`TaskOutcome.index`).

        Completion-order delivery is what makes per-task checkpointing
        possible: :class:`repro.store.scheduler.ResumableScheduler`
        persists each outcome the moment it arrives, so an interrupted
        run loses at most the in-flight tasks.

        Task failures never raise -- they arrive as ``ok=False``
        outcomes after the policy's retries are exhausted.
        """
        items = list(items)
        if labels is None:
            labels = [f"task-{i}" for i in range(len(items))]
        else:
            labels = [str(lab) for lab in labels]
            if len(labels) != len(items):
                raise ConfigError(
                    f"labels/items length mismatch: "
                    f"{len(labels)} != {len(items)}")
        tasks = list(zip(range(len(items)), labels, items))
        for outcomes in self._chunk_results(
                _PolicyTask(fn, policy), tasks, self.chunk_size or 1,
                ordered=False):
            yield from outcomes


def parallel_map(fn: Callable, items: Iterable, workers: int | None = None,
                 chunk_size: int | None = None, progress=None) -> list:
    """One-shot :meth:`ParallelExecutor.map`.

    >>> parallel_map(abs, [-3, 1, -2], workers=1)
    [3, 1, 2]
    """
    with ParallelExecutor(workers=workers, chunk_size=chunk_size) as ex:
        return ex.map(fn, items, progress=progress)

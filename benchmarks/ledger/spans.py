"""Span tracing from outside the program.

The ledger never edits ``src/``: it wraps the public callables listed in
:data:`ENTRY_POINTS` for the length of a traced pass and restores them
afterwards.  Each call becomes a span (name, layer, start, end, CPU,
parent span, operation id); spans stay in memory until the run ends.
Below the finest span -- inside ``Simulator.run`` and ``FluidModel.run``,
millions of calls -- a second pass runs ``cProfile`` inside those two
calls only and :func:`rollup_profile` charges every function's own time
to a layer by module path, with builtin, numpy and stdlib time charged
to the ``repro`` function that called it.

Every name of the program this directory knows is in one of three
tables below -- :data:`ENTRY_POINTS` (callables), :data:`LAYER_BY_PATH`
(source files) and :data:`LAYER_BY_THREAD` (thread names) -- and a
traced run fails when one of them no longer matches the program
(:func:`resolve`, :func:`check_names`), so a refactor of ``src/`` sees
what it must update.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import importlib
import os
import pstats
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

#: Every layer a per-layer ``self_s`` / ``calls`` pair is reported for.
LAYERS = (
    "sim.engine", "sim.link", "sim.packet", "sim.medium", "qdisc", "tcp",
    "cca", "traffic", "core.probe", "core.elasticity", "core.detector",
    "core.campaign", "fluid", "medium", "analysis.changepoint",
    "ndt.synth", "ndt.pipeline", "ndt.stream", "store.fingerprint",
    "store.artifacts", "store.scheduler", "runtime.pool", "serve.server",
    "serve.jobs", "serve.client", "obs", "other",
)

#: Module path (relative to the ``repro`` package) -> layer, first match
#: wins.  Used only for the cProfile roll-up below the finest span.
LAYER_BY_PATH = (
    ("sim/engine.py", "sim.engine"), ("sim/link.py", "sim.link"),
    ("sim/packet.py", "sim.packet"), ("sim/medium.py", "sim.medium"),
    ("qdisc/", "qdisc"), ("tcp/", "tcp"), ("cca/", "cca"),
    ("traffic/", "traffic"), ("core/probe.py", "core.probe"),
    ("core/elasticity.py", "core.elasticity"),
    ("core/detector.py", "core.detector"),
    ("core/campaign.py", "core.campaign"), ("fluid/", "fluid"),
    ("medium/", "medium"),
    ("analysis/changepoint.py", "analysis.changepoint"),
    ("ndt/synth.py", "ndt.synth"), ("ndt/stream.py", "ndt.stream"),
    ("ndt/", "ndt.pipeline"),
    ("store/fingerprint.py", "store.fingerprint"),
    ("store/scheduler.py", "store.scheduler"), ("store/", "store.artifacts"),
    ("runtime/", "runtime.pool"), ("serve/client.py", "serve.client"),
    ("serve/jobs.py", "serve.jobs"), ("serve/", "serve.server"),
    ("obs/", "obs"),
)

#: Layer of the ledger's own work inside a traced pass (calibration
#: loops): recorded so it is subtracted from its parent, never reported.
ASIDE = "ledger"

#: Layer of a thread's root span, by thread-name prefix (longest first):
#: the asyncio loop thread of ``ServerThread`` is the HTTP front, its
#: executor threads run job bodies; anything else is the driver itself.
#: The third field is an entry point known to run on such a thread;
#: :func:`check_names` fails if its spans turn up under another root.
LAYER_BY_THREAD = (
    ("repro-serve_", "serve.jobs", "execute_campaign"),
    ("repro-serve", "serve.server", "JobManager.submit"),
)


@dataclass(frozen=True)
class EntryPoint:
    """One public name of the program the ledger depends on.

    Attributes:
        module: dotted module that defines it.
        attr: ``name`` or ``Class.method``.
        layer: layer its span (and self time) is charged to; ``None``
            for names the workloads only call, never wrap.
        mode: ``"call"`` wraps a plain call; ``"steps"`` wraps a
            generator, one span per resumption; ``"leaf"`` is a call
            whose inside is split by the cProfile roll-up;
            ``"counted"`` is never wrapped (it runs millions of times
            inside a leaf), its calls are read from that profile.
        op: the span starts a new operation id when none is active.
        gauge: ``fn(self)`` read before and after; the difference is
            the span's count (events, ticks).
        size: called with the call's own arguments, gives the span's
            count directly (readings, flows, points).
    """

    module: str
    attr: str
    layer: str | None = None
    mode: str = "call"
    op: bool = False
    gauge: Callable | None = None
    size: Callable | None = None


ENTRY_POINTS = (
    # -- called by the workloads, not wrapped ------------------------------
    EntryPoint("repro.core.campaign", "PathSpec"),
    EntryPoint("repro.core.campaign", "Campaign"),
    EntryPoint("repro.core.campaign", "sample_paths"),
    EntryPoint("repro.store", "ArtifactStore"),
    EntryPoint("repro.serve", "ServerThread"),
    EntryPoint("repro.serve", "ServeClient"),
    EntryPoint("repro.serve.limits", "ClientRateLimiter"),
    EntryPoint("repro.obs.metrics", "registry"),
    # -- the §3.2 probe pipeline ------------------------------------------
    EntryPoint("repro.core.campaign", "Campaign.run", "core.campaign"),
    EntryPoint("repro.core.campaign", "run_path", "core.campaign", op=True),
    EntryPoint("repro.fluid.runner", "run_path_fluid", "fluid"),
    EntryPoint("repro.fluid.model", "FluidModel.run", "fluid", mode="leaf",
               gauge=lambda model: model.ticks),
    EntryPoint("repro.sim.engine", "Simulator.run", "sim.engine",
               mode="leaf", gauge=lambda sim: sim.events_processed),
    EntryPoint("repro.sim.link", "Link.send", "sim.link", mode="counted"),
    EntryPoint("repro.core.probe", "ElasticityProbe.report", "core.probe"),
    EntryPoint("repro.core.detector", "ContentionDetector.verdict",
               "core.detector", size=lambda self, readings: len(readings)),
    # -- the §3.1 NDT pipeline --------------------------------------------
    EntryPoint("repro.ndt.stream", "run_pipeline_streaming", "ndt.stream"),
    EntryPoint("repro.ndt.stream", "analyse_shard", "ndt.stream", op=True),
    EntryPoint("repro.ndt.synth", "SyntheticNdtGenerator.generate_shard",
               "ndt.synth", size=lambda self, start, count: count),
    EntryPoint("repro.ndt.pipeline", "analyse_flow", "ndt.pipeline"),
    EntryPoint("repro.analysis.changepoint", "throughput_level_shift",
               "analysis.changepoint"),
    EntryPoint("repro.analysis.changepoint", "pelt", "analysis.changepoint",
               size=lambda signal, **kwargs: len(signal)),
    # -- store, pool, serve -----------------------------------------------
    EntryPoint("repro.store.fingerprint", "fingerprint", "store.fingerprint"),
    EntryPoint("repro.store.artifacts", "ArtifactStore.get",
               "store.artifacts"),
    EntryPoint("repro.store.artifacts", "ArtifactStore.put",
               "store.artifacts"),
    EntryPoint("repro.store.scheduler", "ResumableScheduler.run",
               "store.scheduler"),
    EntryPoint("repro.runtime.pool", "parallel_map", "runtime.pool"),
    EntryPoint("repro.runtime.pool", "ParallelExecutor.imap_tasks",
               "runtime.pool", mode="steps"),
    EntryPoint("repro.serve.client", "ServeClient.submit", "serve.client"),
    EntryPoint("repro.serve.client", "ServeClient.wait", "serve.client"),
    EntryPoint("repro.serve.client", "ServeClient.events", "serve.client",
               mode="steps"),
    EntryPoint("repro.serve.jobs", "JobManager.submit", "serve.jobs"),
    EntryPoint("repro.serve.jobs", "execute_campaign", "serve.jobs"),
)


def resolve(module: str, attr: str):
    """The object an entry point names (imports the module)."""
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def entry(attr: str):
    """Resolve the entry point called ``attr`` -- the only way the
    workloads reach into the program."""
    for ep in ENTRY_POINTS:
        if ep.attr == attr:
            return resolve(ep.module, ep.attr)
    raise KeyError(f"{attr!r} is not in ENTRY_POINTS")


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Span:
    """One recorded call; ``cpu`` is the calling thread's CPU time."""

    __slots__ = ("id", "parent", "op", "name", "layer", "thread", "start",
                 "end", "cpu", "count")

    def __init__(self, id, parent, op, name, layer, thread):
        self.id = id
        self.parent = parent
        self.op = op
        self.name = name
        self.layer = layer
        self.thread = thread
        self.start = self.end = self.cpu = 0.0
        self.count = 0

    def to_row(self) -> list:
        return [self.id, self.parent, self.op, self.name, self.layer,
                self.thread, round(self.start, 6), round(self.end, 6),
                round(self.cpu, 6), self.count]


#: Column names of :meth:`Span.to_row`, written once per trace file.
SPAN_COLUMNS = ("id", "parent", "op", "name", "layer", "thread", "start",
                "end", "cpu", "count")


def self_times(spans) -> dict[int, float]:
    """Self CPU of every span: its own CPU minus its children's.

    A child is a span whose ``parent`` is this span -- always on the
    same thread, so sibling and nested spans subtract exactly once.
    """
    own = {s.id: s.cpu for s in spans}
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.cpu
    return own


def layer_totals(spans) -> tuple[dict[str, float], dict[str, int]]:
    """(self seconds, call count) per layer over ``spans``."""
    own = self_times(spans)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for s in spans:
        if s.layer == ASIDE:
            continue
        self_s[s.layer] += own[s.id]
        if not s.name.startswith("thread:"):
            calls[s.layer] += 1
    return self_s, calls


class Tracer:
    """Collects spans for one traced pass at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.profiling = False
        self.profiles: list[cProfile.Profile] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: dict[int, Span] = {}
        self._root_cpu0: dict[int, float] = {}
        self._pass_cpu0 = 0.0
        #: This process's CPU seconds over each finished pass.
        self.pass_cpu: list[float] = []
        self._op = -1
        self._next_op = 0
        self._t0 = time.perf_counter()

    # -- operations --------------------------------------------------------

    def begin_op(self) -> int:
        """Start a new operation; spans opened on any thread until
        :meth:`end_op` carry its id (the load is one closed loop, so at
        most one operation is in flight)."""
        self._op = self._next_op
        self._next_op += 1
        return self._op

    def end_op(self) -> None:
        self._op = -1

    # -- passes ------------------------------------------------------------

    def begin_pass(self) -> None:
        """Open a root span on every live thread."""
        self._pass_cpu0 = time.process_time()
        for thread in threading.enumerate():
            self._root_for(thread, _thread_cpu(thread))

    def end_pass(self) -> None:
        """Close the root spans with each thread's CPU over the pass.

        A thread that ended before the pass did cannot be read any
        more.  In these workloads the only threads that come and go
        are the process pool's helpers (they pickle tasks and results
        while the caller waits), so the process CPU no live thread
        accounts for becomes one ``thread:exited`` span on
        ``runtime.pool``.
        """
        now = time.perf_counter() - self._t0
        process_cpu = time.process_time() - self._pass_cpu0
        self.pass_cpu.append(process_cpu)
        alive = {t.ident: t for t in threading.enumerate()}
        for ident, root in self._roots.items():
            thread = alive.get(ident)
            if thread is not None:
                root.cpu = _thread_cpu(thread) - self._root_cpu0[ident]
            root.end = now
        exited = Span(len(self.spans), -1, -1, "thread:exited",
                      "runtime.pool", "exited")
        exited.start = min((r.start for r in self._roots.values()),
                           default=now)
        exited.end = now
        exited.cpu = max(0.0, process_cpu
                         - sum(r.cpu for r in self._roots.values()))
        self.spans.append(exited)
        self._roots = {}
        self._root_cpu0 = {}

    def _root_for(self, thread, cpu0: float) -> Span:
        with self._lock:
            root = self._roots.get(thread.ident)
            if root is None:
                layer = "other"
                for prefix, name, _witness in LAYER_BY_THREAD:
                    if thread.name.startswith(prefix):
                        layer = name
                        break
                root = Span(len(self.spans), -1, -1,
                            f"thread:{thread.name}", layer, thread.name)
                root.start = time.perf_counter() - self._t0
                self.spans.append(root)
                self._roots[thread.ident] = root
                self._root_cpu0[thread.ident] = cpu0
            return root

    # -- spans -------------------------------------------------------------

    def open(self, ep: EntryPoint) -> tuple[Span, bool]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            # A thread born during the pass: all its CPU so far is ours.
            parent = self._root_for(threading.current_thread(), 0.0)
        started_op = ep.op and self._op < 0
        if started_op:
            self.begin_op()
        with self._lock:
            span = Span(len(self.spans), parent.id, self._op, ep.attr,
                        ep.layer, parent.thread)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter() - self._t0
        span.cpu = time.thread_time()
        return span, started_op

    def close(self, span: Span, started_op: bool) -> None:
        span.cpu = time.thread_time() - span.cpu
        span.end = time.perf_counter() - self._t0
        self._local.stack.pop()
        if started_op:
            self.end_op()

    @contextlib.contextmanager
    def aside(self, name: str):
        """A span around the ledger's own work (not the program's)."""
        span, started = self.open(EntryPoint("", name, ASIDE))
        try:
            yield
        finally:
            self.close(span, started)

    def profile(self) -> cProfile.Profile:
        """This thread's profiler (created on first use)."""
        prof = getattr(self._local, "profile", None)
        if prof is None:
            prof = self._local.profile = cProfile.Profile()
            with self._lock:
                self.profiles.append(prof)
        return prof


def _thread_cpu(thread) -> float:
    return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))


# ---------------------------------------------------------------------------
# Wrapping and unwrapping
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, fn, ep: EntryPoint):
    gauge, size = ep.gauge, ep.size

    if ep.mode == "steps":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    span, started = tracer.open(ep)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span, started)
                    yield item
            finally:
                inner.close()
    else:
        leaf = ep.mode == "leaf"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = gauge(args[0]) if gauge is not None else 0
            span, started = tracer.open(ep)
            profile = tracer.profile() if leaf and tracer.profiling else None
            try:
                if profile is not None:
                    profile.enable()
                return fn(*args, **kwargs)
            finally:
                if profile is not None:
                    profile.disable()
                tracer.close(span, started)
                if gauge is not None:
                    span.count = gauge(args[0]) - before
                elif size is not None:
                    span.count = size(*args, **kwargs)

    wrapper.__ledger_original__ = fn
    return wrapper


def _repro_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "repro" or name.startswith("repro."))]


def _rebind(old, new) -> None:
    """Point every ``repro`` module global (and every value of a
    module-level dict, e.g. the serve executor table) that is ``old``
    at ``new`` -- ``from x import f`` copies survive a plain setattr."""
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new


class Installed:
    """The set of wrappers currently in place; :meth:`remove` undoes it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._functions: list[tuple[Callable, Callable]] = []
        self._methods: list[tuple[type, str, Callable]] = []
        for ep in ENTRY_POINTS:
            if ep.layer is None or ep.mode == "counted":
                continue
            original = resolve(ep.module, ep.attr)
            wrapper = _wrap(tracer, original, ep)
            if "." in ep.attr:
                cls_name, name = ep.attr.split(".")
                cls = resolve(ep.module, cls_name)
                setattr(cls, name, wrapper)
                self._methods.append((cls, name, original))
            else:
                self._functions.append((original, wrapper))
        # Rebind after every module above is imported, so late
        # ``from x import f`` copies are found too.
        for original, wrapper in self._functions:
            _rebind(original, wrapper)

    def remove(self) -> None:
        for cls, name, original in self._methods:
            setattr(cls, name, original)
        for original, wrapper in self._functions:
            _rebind(wrapper, original)
        self._methods = []
        self._functions = []


def leftover_wrappers() -> list[str]:
    """Names still bound to a ledger wrapper (empty after ``remove``)."""
    found = []
    for ep in ENTRY_POINTS:
        if hasattr(resolve(ep.module, ep.attr), "__ledger_original__"):
            found.append(f"{ep.module}:{ep.attr}")
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            if hasattr(value, "__ledger_original__"):
                found.append(f"{mod.__name__}:{name}")
    return sorted(set(found))


# ---------------------------------------------------------------------------
# cProfile roll-up
# ---------------------------------------------------------------------------


def layer_of_file(filename: str) -> str | None:
    """Layer of a source file, or ``None`` outside the ``repro`` package."""
    marker = os.sep + "repro" + os.sep
    index = filename.rfind(marker)
    if index < 0:
        return None
    rel = filename[index + len(marker):].replace(os.sep, "/")
    for prefix, layer in LAYER_BY_PATH:
        if rel.startswith(prefix):
            return layer
    return "other"


def rollup_profile(stats: dict) -> tuple[dict[str, float], dict[str, int]]:
    """(own seconds, calls) per layer from ``pstats.Stats(...).stats``.

    A ``repro`` function's own time goes to its file's layer.  Any
    other function (builtin, numpy, stdlib) is split between its
    callers in proportion to the time it spent under each, and so on
    upwards until a ``repro`` function is reached; a call chain that
    never reaches one is charged to ``other``.
    """
    memo: dict[tuple, dict[str, float]] = {}

    def owners(func, seen: frozenset) -> dict[str, float]:
        layer = layer_of_file(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        if not callers or func in seen:
            return {"other": 1.0}
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: float(v[0]) for c, v in callers.items()}
        total = sum(weights.values()) or 1.0
        shares: dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, share in owners(caller, seen | {func}).items():
                shares[layer] = shares.get(layer, 0.0) \
                    + share * weight / total
        memo[func] = shares
        return shares

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        layer = layer_of_file(func[0])
        if layer is not None:
            calls[layer] += ncalls
        for name, share in owners(func, frozenset()).items():
            self_s[name] += tottime * share
    return self_s, calls


def profile_stats(profiles) -> dict:
    """Merged ``pstats`` table of the per-thread profilers."""
    merged = None
    for prof in profiles:
        prof.create_stats()
        if not prof.stats:
            continue
        if merged is None:
            merged = pstats.Stats(prof)
        else:
            merged.add(prof)
    return merged.stats if merged is not None else {}


def profiled_calls(stats: dict, attr: str) -> int:
    """Profiled call count of the ``"counted"`` entry point ``attr``
    (an exact, repeatable count)."""
    code = entry(attr).__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return stats[key][1] if key in stats else 0


def check_names(spans) -> None:
    """Raise unless :data:`LAYER_BY_PATH` and :data:`LAYER_BY_THREAD`
    still match the program (:data:`ENTRY_POINTS` fails on its own, in
    :func:`resolve`): a layer would otherwise read 0, or its time land
    in ``other``, without a word."""
    package = os.path.dirname(importlib.import_module("repro").__file__)
    stale = [f"no {prefix} under {package}" for prefix, _layer
             in LAYER_BY_PATH
             if not os.path.exists(os.path.join(package, prefix))]
    root_layer = {s.thread: s.layer for s in spans if s.parent < 0}
    for prefix, layer, witness in LAYER_BY_THREAD:
        elsewhere = {s.thread for s in spans if s.name == witness
                     and root_layer.get(s.thread) != layer}
        if elsewhere:
            stale.append(f"{witness} ran on {sorted(elsewhere)}, not on a "
                         f"{prefix!r} thread ({layer})")
    if stale:
        raise RuntimeError("spans.py names no longer match the program: "
                           + "; ".join(stale))

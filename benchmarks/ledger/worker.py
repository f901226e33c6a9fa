"""One fresh process of the ledger: set-up, then passes.

``run.py`` starts this file as a subprocess -- never import it from a
process that measures something else, because set-up time is this
process's CPU clock from interpreter start.  Three modes:

``setup``    set-up only (imports, inputs, one warm-up pass at the
             smallest size that runs every kind of operation once);
             prints the CPU seconds it took.
``measure``  set-up, then timed passes for ``--seconds``.
``trace``    set-up, two untraced passes, then span and cProfile passes
             that give the per-layer numbers and the trace file.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import stats
from hostspeed import Calibrator
from workloads import WORKLOADS, PassTimer, cpu_now, digest

#: Timed passes a run makes at least, by input size.
MIN_PASSES = {"full": 4, "quick": 2}

#: Counters of the program's own metrics registry reported per layer.
REGISTRY_COUNTS = {
    "store.artifacts.puts": "store.puts",
    "store.artifacts.hits": "store.hits",
    "store.artifacts.misses": "store.misses",
    "store.artifacts.bytes_written": "store.bytes_written",
    "runtime.pool.tasks": "pool.tasks",
    "serve.http_requests": "serve.http_requests",
    "serve.jobs_executed": "serve.jobs_executed",
    "serve.jobs_cached": "serve.jobs_cached",
}

#: (name, unit, better) of every per-layer metric beyond the
#: ``<layer>.self_s`` / ``<layer>.calls`` pairs.
EXTRA_PER_LAYER = (
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.events_per_cpu_s", "1/s", "higher"),
    ("sim.link.packets", "count", "lower"),
    ("sim.link.packets_per_cpu_s", "1/s", "higher"),
    ("fluid.ticks", "count", "lower"),
    ("fluid.ticks_per_cpu_s", "1/s", "higher"),
    ("fluid.paths_per_cpu_s", "1/s", "higher"),
    ("core.elasticity.readings", "count", "lower"),
    ("analysis.changepoint.points", "count", "lower"),
    ("analysis.changepoint.points_per_cpu_s", "1/s", "higher"),
    ("ndt.synth.flows_per_cpu_s", "1/s", "higher"),
    ("ndt.stream.shards", "count", "lower"),
    ("store.artifacts.puts", "count", "lower"),
    ("store.artifacts.hits", "count", "higher"),
    ("store.artifacts.misses", "count", "lower"),
    ("store.artifacts.bytes_written", "B", "lower"),
    ("store.artifacts.put_ms", "ms", "lower"),
    ("store.artifacts.get_ms", "ms", "lower"),
    ("store.fingerprint.ops_per_cpu_s", "1/s", "higher"),
    ("runtime.pool.tasks", "count", "lower"),
    ("runtime.pool.dispatch_ms_per_task", "ms", "lower"),
    ("serve.hit_cpu_ms", "ms", "lower"),
    ("serve.miss_cpu_ms", "ms", "lower"),
    ("serve.hit_latency_ms_p50", "ms", "lower"),
    ("serve.hit_latency_ms_tail", "ms", "lower"),
    ("serve.hit_latency_tail_pct", "%", "higher"),
    ("serve.miss_latency_ms_p50", "ms", "lower"),
    ("serve.miss_latency_ms_tail", "ms", "lower"),
    ("serve.miss_latency_tail_pct", "%", "higher"),
    ("serve.miss_overhead_ms", "ms", "lower"),
    ("serve.http_requests", "count", "lower"),
    ("serve.jobs_executed", "count", "lower"),
    ("serve.jobs_cached", "count", "higher"),
    ("host.wall_ms_per_op", "ms", "lower"),
    ("host.wall_over_cpu", "ratio", "lower"),
    ("host.slowdown", "ratio", "lower"),
    ("host.loadavg_1m", "count", "lower"),
    ("host.nproc", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("quality.digest_stable", "count", "higher"),
    ("quality.failed_frac", "ratio", "lower"),
)


def per_layer_declarations() -> list[dict]:
    """Every per-layer metric, as ``BENCHMARK.json`` lists them."""
    rows = []
    for layer in spans.LAYERS:
        rows.append({"name": f"{layer}.self_s", "unit": "s",
                     "better": "lower"})
        rows.append({"name": f"{layer}.calls", "unit": "count",
                     "better": "lower"})
    rows.extend({"name": n, "unit": u, "better": b}
                for n, u, b in EXTRA_PER_LAYER)
    return rows


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Host:
    """The CPUs this process may use and the loop that times them.  A
    context manager: leaving it gives the process its CPUs back."""

    def __init__(self):
        #: CPU seconds gone before the reference loop existed:
        #: interpreter start and the ledger's own imports, numpy among
        #: them.  No reading brackets them.
        self.unbracketed_s = cpu_now()
        self.cpus = sorted(os.sched_getaffinity(0))
        self.calibrator = Calibrator()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        os.sched_setaffinity(0, self.cpus)

    def pin(self) -> None:
        self.calibrator.pin_to_fastest(self.cpus)

    def setup_seconds(self) -> float:
        """CPU seconds from interpreter start until now, the ledger's
        own loops left out.  What ran since the loop existed (the
        program's imports, inputs, the warm-up pass) is put at
        reference host speed by the median of every reading since then
        and three more; what ran before it is taken as it is -- it
        follows the loop by about a third of the loop's swing (measured
        over 120 fresh processes), so dividing would over-correct."""
        bracketed_s = (cpu_now() - self.unbracketed_s
                       - self.calibrator.spent)
        for _ in range(3):
            self.calibrator.slowdown()
        return self.unbracketed_s + bracketed_s / statistics.median(
            self.calibrator.history)


def run_pass(host: Host, workload, tracer=None):
    """One pass: untimed preparation, the timed part, untimed clean-up."""
    host.pin()
    # Cyclic garbage of earlier passes would otherwise pile up until
    # the interpreter's next full collection, whenever that falls, and
    # make peak memory depend on when it fell.
    gc.collect()
    workload.open_pass()
    try:
        if tracer is not None:
            tracer.begin_pass()
        timer = PassTimer(host.calibrator, tracer)
        try:
            out = workload.run_pass(timer, tracer)
        finally:
            if tracer is not None:
                tracer.end_pass()
    finally:
        workload.close_pass()
    workload.verify(out)
    return timer, out


def set_up(host: Host, args, scratch: Path):
    """Imports, inputs, objects and the warm-up pass; returns the
    workload ready for its first timed pass."""
    cls = WORKLOADS[args.workload]
    warm = cls(cls.make_inputs(args.seed, "warm"), scratch)
    _timer, out = run_pass(host, warm)
    if out.failed:
        raise RuntimeError(f"warm-up failed: {out.errors[:3]}")
    return cls(cls.make_inputs(args.seed, args.size), scratch)


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class PassLog:
    """Segments and outputs of the passes of one run."""

    def __init__(self):
        self.segments: dict[str, dict] = {}
        self.digests: list[str] = []
        self.attempted = self.failed = self.matches = 0
        self.errors: list[str] = []
        self.passes = 0

    def add(self, timer: PassTimer, out) -> None:
        self.passes += 1
        for name, seg in timer.segments.items():
            log = self.segments.setdefault(
                name, {"ops": seg["ops"], "cpu_s": [], "wall_s": [],
                       "slowdown": []})
            for clock in ("cpu_s", "wall_s", "slowdown"):
                log[clock].append(seg[clock])
        self.digests.append(digest(out.outputs))
        self.attempted += out.attempted
        self.failed += out.failed
        self.matches += out.matches
        self.errors.extend(out.errors[:3])

    @property
    def ops_per_pass(self) -> int:
        return sum(seg["ops"] for seg in self.segments.values())

    def per_op_ms(self, clock: str, estimator) -> float:
        """``estimator`` over passes of each segment's seconds, summed
        over the segments of a pass, per operation, in ms."""
        total = sum(estimator(seg[clock]) for seg in self.segments.values())
        return total / self.ops_per_pass * 1e3

    def normalised_per_op_ms(self) -> float:
        """Median over passes of each segment's CPU time at reference
        host speed, summed over the segments, per operation, in ms."""
        total = sum(
            statistics.median(cpu / slowdown for cpu, slowdown
                              in zip(seg["cpu_s"], seg["slowdown"]))
            for seg in self.segments.values())
        return total / self.ops_per_pass * 1e3

    def summary(self) -> dict:
        return {
            "passes": self.passes,
            "ops_per_pass": self.ops_per_pass,
            "attempted": self.attempted,
            "failed": self.failed,
            "matches": self.matches,
            "result_digest": self.digests[0] if self.digests else "",
            "digest_stable": len(set(self.digests)) == 1,
            "errors": self.errors[:5],
            "segments": self.segments,
        }


    def median_slowdown(self) -> float:
        return statistics.median(value for seg in self.segments.values()
                                 for value in seg["slowdown"])


def measure(host: Host, args, scratch: Path) -> dict:
    workload = set_up(host, args, scratch)
    setup_s = host.setup_seconds()
    log = PassLog()
    min_passes = MIN_PASSES[args.size]
    deadline = time.monotonic() + args.seconds
    while log.passes < min_passes or time.monotonic() < deadline:
        log.add(*run_pass(host, workload))
        if log.passes == min_passes:
            # Read after a fixed amount of work: a faster host fits
            # more passes into the run, and the heap creeps with each.
            rss_mib = peak_rss_mib()
    result = log.summary()
    result["metrics"] = {
        "cpu_ms_per_op": log.normalised_per_op_ms(),
        "peak_rss_mib": rss_mib,
        "setup_s": setup_s,
        "accuracy": log.matches / max(1, log.attempted),
    }
    result["info"] = {
        "raw_cpu_ms_per_op_q1": log.per_op_ms("cpu_s",
                                              stats.lower_quartile),
        "raw_cpu_ms_per_op_median": log.per_op_ms("cpu_s",
                                                  statistics.median),
        "wall_ms_per_op": log.per_op_ms("wall_s", statistics.median),
        "host_slowdown": log.median_slowdown(),
        "failed_frac": log.failed / max(1, log.attempted),
    }
    return result


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _registry_counts() -> dict[str, float]:
    snapshot = spans.entry("registry")().snapshot()
    return {name: snapshot.get(counter, {}).get("value", 0.0)
            for name, counter in REGISTRY_COUNTS.items()}


def _inclusive(span_list, name: str) -> tuple[float, float, int, int]:
    """(CPU s, wall s, calls, summed count) of the spans called ``name``."""
    hits = [s for s in span_list if s.name == name]
    return (sum(s.cpu for s in hits), sum(s.end - s.start for s in hits),
            len(hits), sum(s.count for s in hits))


def _rate(count: float, per: float) -> float:
    return count / per if per > 0 else 0.0


def _raw_cpu(timer: PassTimer) -> float:
    return sum(seg["cpu_s"] for seg in timer.segments.values())


class TracedPass:
    """Spans, timer and output of one pass run under the tracer."""

    def __init__(self, label: str, host, workload, tracer, log: PassLog):
        self.label = label
        first = len(tracer.spans)
        self.timer, self.out = run_pass(host, workload, tracer)
        log.add(self.timer, self.out)
        self.spans = tracer.spans[first:]
        #: The program's CPU in this process between the tracer's
        #: begin and end (the ledger's own asides taken out).
        self.process_cpu = tracer.pass_cpu[-1] - sum(
            s.cpu for s in self.spans if s.layer == spans.ASIDE)


def layer_self_times(traced: TracedPass, profile: dict):
    """(self seconds, calls) per layer of one traced pass: from spans,
    with the inside of the leaf spans split by the profile roll-up."""
    self_s, calls = spans.layer_totals(traced.spans)
    own = spans.self_times(traced.spans)
    leaf_names = {ep.attr for ep in spans.ENTRY_POINTS if ep.mode == "leaf"}
    prof_self, prof_calls = spans.rollup_profile(profile)
    prof_total = sum(prof_self.values())
    if prof_total > 0:
        for s in traced.spans:
            if s.name in leaf_names:
                self_s[s.layer] -= own[s.id]
                for layer, seconds in prof_self.items():
                    self_s[layer] += own[s.id] * seconds / prof_total
        for layer, n in prof_calls.items():
            calls[layer] += n
    return self_s, calls


def trace(host: Host, args, scratch: Path) -> dict:
    workload = set_up(host, args, scratch)
    log = PassLog()

    # Untraced passes: the cheaper of two (the first still pays for
    # first use at full size) is the speed every traced number is
    # scaled back to, and the only pass latencies are read from.
    untraced = []
    for _ in range(2):
        untraced.append(run_pass(host, workload))
        log.add(*untraced[-1])
    plain_timer, plain = min(untraced,
                             key=lambda pair: pair[0].normalised_cpu())

    tracer = spans.Tracer()
    installed = spans.Installed(tracer)
    try:
        counts0 = _registry_counts()
        configured = TracedPass("as-configured", host, workload, tracer, log)
        counts = {name: value - counts0[name]
                  for name, value in _registry_counts().items()}
        # Pool workers keep their spans to themselves, so a workload
        # that fans out is traced again in-process for the layer split.
        inproc = configured
        if workload.workers > 1:
            workload.workers = 1
            inproc = TracedPass("in-process", host, workload, tracer, log)
        tracer.profiling = True
        TracedPass("profiled", host, workload, tracer, log)
    finally:
        installed.remove()
    leftovers = spans.leftover_wrappers()
    if leftovers:
        raise RuntimeError(f"wrappers left in place: {leftovers}")
    spans.check_names(tracer.spans)
    profile = spans.profile_stats(tracer.profiles)

    metrics = per_layer_metrics(workload, log, plain_timer, plain,
                                configured, inproc, counts, profile)
    result = log.summary()
    result["metrics"] = metrics
    result["info"] = {"untraced_pass_cpu_s": plain_timer.normalised_cpu()}
    if args.trace_out:
        write_trace(args, [configured] + ([inproc] if inproc is not configured
                                          else []), profile, metrics)
    return result


def per_layer_metrics(workload, log, plain_timer, plain, configured, inproc,
                      counts, profile) -> dict:
    """Every declared per-layer metric.  Times are normalised CPU
    seconds of one *untraced* pass: traced seconds times the ratio of
    the untraced pass's normalised CPU to the traced pass's raw CPU."""
    plain_cpu = plain_timer.normalised_cpu()
    plain_raw_cpu = _raw_cpu(plain_timer)
    plain_wall = sum(seg["wall_s"] for seg in plain_timer.segments.values())
    scale = _rate(plain_cpu, _raw_cpu(inproc.timer))
    pool_scale = _rate(plain_cpu, _raw_cpu(configured.timer))

    self_s, calls = layer_self_times(inproc, profile)
    pool_self, pool_calls = spans.layer_totals(configured.spans)
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer] * scale
        metrics[f"{layer}.calls"] = calls[layer]
    # Parent-side pool cost comes from the pass that used the pool.
    metrics["runtime.pool.self_s"] = pool_self["runtime.pool"] * pool_scale
    metrics["runtime.pool.calls"] = pool_calls["runtime.pool"]

    sim_cpu, _w, _n, events = _inclusive(inproc.spans, "Simulator.run")
    fluid_cpu, _w, _n, ticks = _inclusive(inproc.spans, "FluidModel.run")
    path_cpu, _w, paths, _c = _inclusive(inproc.spans, "run_path_fluid")
    _c, _w, _n, readings = _inclusive(inproc.spans,
                                      "ContentionDetector.verdict")
    pelt_cpu, _w, _n, points = _inclusive(inproc.spans, "pelt")
    synth_cpu, _w, _n, flows = _inclusive(
        inproc.spans, "SyntheticNdtGenerator.generate_shard")
    _c, _w, shards, _n = _inclusive(inproc.spans, "analyse_shard")
    fp_cpu, _w, fp_calls, _n = _inclusive(inproc.spans, "fingerprint")
    _c, put_wall, puts, _n = _inclusive(configured.spans,
                                        "ArtifactStore.put")
    _c, get_wall, gets, _n = _inclusive(configured.spans,
                                        "ArtifactStore.get")
    packets = spans.profiled_calls(profile, "Link.send")
    metrics.update(counts)
    metrics.update({
        "sim.engine.events": events,
        "sim.engine.events_per_cpu_s": _rate(events, sim_cpu * scale),
        "sim.link.packets": packets,
        "sim.link.packets_per_cpu_s": _rate(packets, sim_cpu * scale),
        "fluid.ticks": ticks,
        "fluid.ticks_per_cpu_s": _rate(ticks, fluid_cpu * scale),
        "fluid.paths_per_cpu_s": _rate(paths, path_cpu * scale),
        "core.elasticity.readings": readings,
        "analysis.changepoint.points": points,
        "analysis.changepoint.points_per_cpu_s":
            _rate(points, pelt_cpu * scale),
        "ndt.synth.flows_per_cpu_s": _rate(flows, synth_cpu * scale),
        "ndt.stream.shards": shards,
        "store.artifacts.put_ms": _rate(put_wall * 1e3, puts),
        "store.artifacts.get_ms": _rate(get_wall * 1e3, gets),
        "store.fingerprint.ops_per_cpu_s": _rate(fp_calls, fp_cpu * scale),
        "runtime.pool.dispatch_ms_per_task": _rate(
            metrics["runtime.pool.self_s"] * 1e3,
            counts["runtime.pool.tasks"]),
    })

    # Requests (zero on workloads that make none), from the untraced pass.
    speed = _rate(plain_cpu, plain_raw_cpu)
    for kind in ("hit", "miss"):
        latency = plain.samples.get(f"{kind}_latency_ms", [])
        cpu_ms = plain.samples.get(f"{kind}_cpu_ms", [])
        tail, pct = stats.tail_percentile(latency) if latency else (0.0, 0.0)
        metrics[f"serve.{kind}_cpu_ms"] = (
            statistics.median(cpu_ms) * speed if cpu_ms else 0.0)
        metrics[f"serve.{kind}_latency_ms_p50"] = (
            stats.percentile(latency, 50.0) if latency else 0.0)
        metrics[f"serve.{kind}_latency_ms_tail"] = tail
        metrics[f"serve.{kind}_latency_tail_pct"] = pct
    metrics["serve.miss_overhead_ms"] = (
        metrics["serve.miss_latency_ms_p50"]
        - statistics.median(workload.direct_ms)
        if workload.direct_ms else 0.0)

    metrics.update({
        "host.wall_ms_per_op": plain_wall / log.ops_per_pass * 1e3,
        "host.wall_over_cpu": _rate(plain_wall, plain_raw_cpu),
        "host.slowdown": log.median_slowdown(),
        "host.loadavg_1m": os.getloadavg()[0],
        "host.nproc": os.cpu_count() or 1,
        "trace.overhead_ratio": _rate(configured.timer.normalised_cpu(),
                                      plain_cpu),
        "trace.coverage_ratio": _rate(
            sum(self_s.values()) - self_s["other"], inproc.process_cpu),
        "trace.spans": len(inproc.spans),
        "quality.digest_stable": 1 if len(set(log.digests)) == 1 else 0,
        "quality.failed_frac": log.failed / max(1, log.attempted),
    })
    return metrics


def write_trace(args, traced_passes, profile: dict, metrics: dict) -> None:
    """The span trace, the profile roll-up and the per-layer numbers
    of one traced run, as one compact JSON file."""
    prof_self, _calls = spans.rollup_profile(profile)
    top = sorted(profile.items(), key=lambda kv: -kv[1][2])[:30]
    document = {
        "schema": "ledger-trace/1",
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "columns": list(spans.SPAN_COLUMNS),
        "passes": [{"label": t.label,
                    "spans": [s.to_row() for s in t.spans]}
                   for t in traced_passes],
        "profile": {
            "self_s_by_layer": {k: round(v, 6)
                                for k, v in prof_self.items() if v},
            "top_functions": [[f"{os.path.basename(f[0])}:{f[1]}:{f[2]}",
                               round(v[2], 6), v[1]] for f, v in top]},
        "per_layer": metrics,
    }
    out_path = Path(args.trace_out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(document, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "quick"), default="full")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        default="measure")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    with Host() as host:
        host.pin()
        if args.mode == "setup":
            set_up(host, args, scratch)
            result = {"metrics": {"setup_s": host.setup_seconds()}}
        elif args.mode == "measure":
            result = measure(host, args, scratch)
        else:
            result = trace(host, args, scratch)
    result.update(workload=args.workload, seed=args.seed, size=args.size,
                  mode=args.mode)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

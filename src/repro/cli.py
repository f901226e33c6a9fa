"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands:

* ``repro list`` -- show available experiments.
* ``repro run fig3 [--out results/] [--smoke]`` -- run an experiment
  and print its report (optionally saving CSV/JSON artifacts).
* ``repro trace fig3 --out trace.jsonl`` -- run an experiment with the
  structured event trace streamed to JSONL.
* ``repro metrics fig3`` -- run an experiment and print the metrics
  registry (counters, gauges, histograms).
* ``repro quicklook --cross reno`` -- probe one emulated path.
* ``repro synth-ndt --flows 1000 --out ndt.jsonl`` -- write a synthetic
  NDT dataset.
* ``repro store stat|ls|gc`` -- inspect and prune the result store.
* ``repro qa fuzz|search|envelope|shrink|corpus`` -- the one QA loop,
  unguided on packet (random scenario fuzzing against the oracle
  suite) or guided on fluid (coverage-guided adversarial search);
  the per-detector robustness-envelope artifact, failure
  minimization, and the committed regression corpus (see
  TESTING.md).
* ``repro serve`` -- run the always-on experiment service: an asyncio
  HTTP server accepting campaign/pipeline/sweep/qa-search/
  qa-envelope requests as JSON, with request coalescing, store-backed
  cache hits, rate limiting, and graceful drain (see SERVING.md).
* ``repro cluster status`` -- probe a federation of serve nodes and
  list local cluster-run manifests; ``repro run ... --cluster`` and
  ``repro qa search --cluster`` shard their inner work across those
  nodes and merge results back (see SERVING.md, "Cluster mode").

Machine-readable output: ``run`` / ``trace`` / ``metrics`` / ``qa
fuzz|search|envelope|corpus`` accept ``--json``, printing a single JSON
document to stdout.  Exit codes are uniform: 0 success, 1 failure
(including any :class:`repro.errors.ReproError`), 2 usage error.

Parallelism: experiments with independent inner work (the campaign,
the Figure 2 pipeline) accept ``--workers N``; without the flag the
``REPRO_WORKERS`` environment variable, then the CPU count, decides.

Caching: ``repro run`` / ``repro trace`` / ``repro metrics`` consult
the content-addressed result store (``$REPRO_STORE``, default
``~/.cache/repro``) unless ``--no-cache`` is given -- a repeated run
with identical parameters is served from disk, and an interrupted
campaign re-executes only its unfinished paths (add ``--resume`` to
also skip paths the previous run quarantined as persistently failing).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__

def _json_default(obj):
    """JSON fallback for numpy scalars and other numerics."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _print_json(payload: dict) -> None:
    import json
    print(json.dumps(payload, indent=2, sort_keys=True,
                     default=_json_default))


def cmd_list(args) -> int:
    """``repro list``: print the experiment registry."""
    from .experiments import EXPERIMENTS
    for name, fn in sorted(EXPERIMENTS.items()):
        doc = (sys.modules[fn.__module__].__doc__ or "").strip()
        first = doc.splitlines()[0] if doc else ""
        print(f"{name:16s} {first}")
    return 0


#: ``run() parameter: args attribute`` for every optional flag that
#: ``run``/``trace``/``metrics`` pass through to an experiment that
#: accepts it; the late axes' flags join from their declaration.
_PASSTHROUGH = {"seed": "seed", "workers": "workers", "resume": "resume",
                "cluster": "cluster", "n_flows": "flows",
                "chunk_size": "chunk_size"}


def _experiment_command(command):
    """``command(args, run_fn, params)`` as a sub-command of ``args``.

    Shared by ``run``, ``trace``, and ``metrics``: smoke overrides and
    the optional flag passthrough are :func:`repro.experiments.resolve`
    (a flag the experiment does not accept is ignored with a note; an
    unknown experiment is a usage error).
    """
    @functools.wraps(command)
    def resolved(args) -> int:
        from .core.axes import declared
        from .errors import ConfigError
        from .experiments import resolve
        flags = {**_PASSTHROUGH,
                 **{a.name: a.name for a in declared("run", "path")}}
        offered = {param: getattr(args, arg, None)
                   for param, arg in flags.items()}
        try:
            run_fn, params, declined = resolve(
                args.experiment, args.smoke,
                offered={param: value for param, value in offered.items()
                         if value is not None and value is not False
                         and value != ""})
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            return 2
        for param in declined:
            print(f"note: {args.experiment} takes no "
                  f"{flags[param].replace('_', ' ')}; ignoring",
                  file=sys.stderr)
        return command(args, run_fn, params)
    return resolved


def _cli_store(args):
    """The store the command should use (None when ``--no-cache``)."""
    if getattr(args, "no_cache", False):
        return None
    from .store import ArtifactStore
    return ArtifactStore()


def _experiment_key(name: str, params: dict) -> str:
    """Store key memoizing a whole experiment run.

    ``workers`` is excluded: the determinism contract makes results
    worker-count invariant, so a run at ``--workers 8`` can serve the
    same config at ``--workers 1``.  ``cluster`` likewise: a clustered
    campaign is byte-identical to a local one, so either can serve
    the other.
    """
    from .store import fingerprint
    payload = {k: v for k, v in params.items()
               if k not in ("workers", "resume", "cluster")}
    return fingerprint({"experiment": name, "params": payload},
                       kind="experiment")


@_experiment_command
def cmd_run(args, run_fn, params) -> int:
    """``repro run <experiment>``: run and print one experiment."""
    from .store import using_store
    store = _cli_store(args)
    with using_store(store):
        key = _experiment_key(args.experiment, params)
        result = None if store is None else store.get(key)
        cached = result is not None
        if not cached:
            result = run_fn(**params)
            if store is not None:
                store.put(key, result, kind="experiment",
                          label=args.experiment)
    written = []
    prior = False
    if args.out:
        from .obs.metrics import REGISTRY
        if len(REGISTRY):
            result.attachments.setdefault("metrics_registry",
                                          REGISTRY.snapshot())
        from pathlib import Path
        prior = (Path(args.out) / result.experiment
                 / "report.txt").exists()
        written = result.save(args.out, force=args.force)
    if args.json:
        _print_json({"experiment": result.experiment,
                     "metrics": dict(result.metrics),
                     "params": result.params,
                     "elapsed_s": result.elapsed_s,
                     "cached": cached,
                     "written": [str(p) for p in written]})
        return 0
    print(result.text)
    tag = " (cached)" if cached else ""
    print(f"\n[{result.experiment} finished in "
          f"{result.elapsed_s:.1f}s{tag}]")
    for path in written:
        print(f"wrote {path}")
    if prior and not args.force:
        print(f"note: {args.out} already held a "
              f"{result.experiment} result; the new files were "
              "versioned alongside it (use --force to overwrite "
              "in place)")
    return 0


@_experiment_command
def cmd_trace(args, run_fn, params) -> int:
    """``repro trace <experiment>``: run with event tracing to JSONL."""
    from .obs.bus import JsonlTraceWriter
    from .store import using_store
    kinds = args.kinds.split(",") if args.kinds else None
    with JsonlTraceWriter(args.out, kinds=kinds) as writer, \
            using_store(_cli_store(args)):
        result = run_fn(**params)
    if args.json:
        _print_json({"experiment": result.experiment,
                     "out": args.out,
                     "events": writer.count,
                     "counts": dict(writer.counts)})
        return 0
    print(f"{result.experiment}: wrote {writer.count} events "
          f"to {args.out}")
    for kind, n in sorted(writer.counts.items()):
        print(f"  {kind:10s} {n:>10d}")
    return 0


def _print_registry(entries, indent: str = "", width: int = 32) -> None:
    """One line per metric of a registry snapshot."""
    for name, entry in entries:
        if entry["type"] == "histogram":
            count = entry["count"]
            mean = entry["sum"] / count if count else 0.0
            print(f"{indent}{name:{width}s} histogram n={count} "
                  f"mean={mean:.6g}")
        else:
            print(f"{indent}{name:{width}s} {entry['type']} "
                  f"{entry['value']:.6g}")


@_experiment_command
def cmd_metrics(args, run_fn, params) -> int:
    """``repro metrics <experiment>``: run and print the metrics registry."""
    from .obs.metrics import REGISTRY
    from .store import using_store
    REGISTRY.reset()
    with using_store(_cli_store(args)):
        result = run_fn(**params)
    snapshot = REGISTRY.snapshot()
    written = []
    if args.out:
        result.attachments["metrics_registry"] = snapshot
        written = result.save(args.out)
    if args.json:
        _print_json({"experiment": result.experiment,
                     "metrics_registry": snapshot})
        return 0
    _print_registry(snapshot.items())
    if not snapshot:
        print("(no metrics recorded)")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_quicklook(args) -> int:
    """``repro quicklook``: probe one emulated path and print verdicts."""
    from .core.axes import declared
    from .core.quicklook import run_quicklook
    axes = {}
    for axis in declared("path"):
        value = getattr(args, axis.name)
        axes[axis.name] = axis.default if value is None else value
    result = run_quicklook(cross_traffic=args.cross,
                           duration=args.duration, seed=args.seed or 0,
                           **axes)
    print(f"cross traffic:     {result.cross_traffic}")
    for name, value in axes.items():
        print(f"{name + ':':18s} {value}")
    print(f"mean elasticity:   {result.mean_elasticity:.2f}")
    print(f"contending:        {result.verdict} ({result.category})")
    print(f"probe throughput:  {result.probe_throughput_mbps:.1f} Mbit/s")
    return 0


def _human_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover


def cmd_store(args) -> int:
    """``repro store stat|ls|gc``: inspect and prune the result store."""
    import time

    from .store import ArtifactStore
    store = ArtifactStore(args.root)
    if args.store_command == "stat":
        stat = store.stat()
        print(f"store root:    {stat['root']}")
        print(f"entries:       {stat['entries']}")
        print(f"size:          {_human_bytes(stat['bytes'])}")
        print(f"lifetime hits: {stat['hits']}  misses: "
              f"{stat['misses']}")
        for kind, bucket in sorted(stat["by_kind"].items()):
            print(f"  {kind:12s} {bucket['entries']:>6d} entries  "
                  f"{_human_bytes(bucket['bytes'])}")
        checkpoints = sorted((store.root / "checkpoints").glob("*.json"))
        if checkpoints:
            import json
            print(f"checkpoints:   {len(checkpoints)}")
            for path in checkpoints:
                try:
                    with open(path) as f:
                        manifest = json.load(f)
                except (OSError, ValueError):
                    continue
                print(f"  {path.stem[:12]}  {manifest.get('status')}  "
                      f"done={len(manifest.get('done', {}))}"
                      f"/{manifest.get('total', 0)}  "
                      f"failed={len(manifest.get('failed', {}))}")
        return 0
    if args.store_command == "ls":
        entries = sorted(store.entries().items(),
                         key=lambda kv: kv[1]["last_access"],
                         reverse=True)
        if args.kind:
            entries = [(k, e) for k, e in entries
                       if e["kind"] == args.kind]
        now = time.time()
        print(f"{'key':12s}  {'kind':10s}  {'size':>10s}  "
              f"{'hits':>5s}  {'age':>8s}  label")
        for key, entry in entries[:args.limit]:
            age_s = max(0.0, now - entry["created"])
            age = (f"{age_s / 86400:.1f}d" if age_s >= 86400
                   else f"{age_s / 3600:.1f}h" if age_s >= 3600
                   else f"{age_s:.0f}s")
            print(f"{key[:12]}  {entry['kind']:10s}  "
                  f"{_human_bytes(entry['size']):>10s}  "
                  f"{entry['hits']:>5d}  {age:>8s}  {entry['label']}")
        if len(entries) > args.limit:
            print(f"... and {len(entries) - args.limit} more "
                  f"(--limit to see them)")
        return 0
    # gc (argparse admits no fourth command)
    if args.max_age_days is None and args.max_bytes is None:
        print("gc needs --max-age-days and/or --max-bytes",
              file=sys.stderr)
        return 2
    evicted, freed = store.prune(
        max_age_s=(None if args.max_age_days is None
                   else args.max_age_days * 86400.0),
        max_bytes=args.max_bytes)
    print(f"evicted {evicted} entries, freed {_human_bytes(freed)}")
    return 0


def _promote_failures(found, args) -> None:
    """Shrink the first ``--max-shrink`` of ``found``, ``(failure,
    origin)`` pairs, into ``--corpus-out`` (``qa fuzz``, ``qa search``)."""
    import time

    from .qa.search import promote_failure

    created = time.strftime("%Y-%m-%d")
    for failure, origin in found[:args.max_shrink]:
        print(f"shrinking [{failure.oracle}] "
              f"{failure.scenario.label()}...", file=sys.stderr)
        case, runs = promote_failure(failure, origin, created,
                                     directory=args.corpus_out)
        print(f"  -> {args.corpus_out}/{case.name}.json "
              f"({runs} shrink runs)", file=sys.stderr)


def cmd_qa_search(args) -> int:
    """``repro qa search`` (guided, on fluid) and ``repro qa fuzz``
    (unguided, on packet): one QA loop, :func:`repro.qa.search.
    run_search`.

    Stdout carries only the deterministic report (a pure function of
    its arguments, bit-identical for any worker count); timing goes
    to stderr.  Failures that reproduced on the packet backend (every
    ``qa fuzz`` failure is a packet finding) are shrunk and written
    into ``--corpus-out``; the exit code is 1 only when at least one
    failure reproduced.
    """
    import time as _time

    from .qa.search import run_search

    t0 = _time.time()
    if getattr(args, "cluster", None):
        from .cluster import run_clustered_search
        report = run_clustered_search(
            args.budget, args.cluster, seed=args.seed,
            store=_cli_store(args))
    else:
        report = run_search(args.budget, seed=args.seed,
                            workers=getattr(args, "workers", None),
                            guided=args.guided, backend=args.backend)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(report.render())
    print(f"[{_time.time() - t0:.1f}s]", file=sys.stderr)
    reproduced = report.reproduced_failures
    if not args.no_shrink:
        origin = f"{args.qa_command} seed={args.seed}"
        _promote_failures([(failure, origin) for failure in reproduced],
                          args)
    return 1 if reproduced else 0


def cmd_qa_envelope(args) -> int:
    """``repro qa envelope``: the robustness-envelope artifact.

    Produces (or fetches from the store) the feature-cell
    pass/fail/confidence surface for the default detector config.
    ``--out`` writes the artifact JSON; ``--check BASELINE`` diffs it
    against a committed baseline and exits 1 on any cell that passed
    in the baseline but fails now.
    """
    import json as _json
    import time as _time

    from .qa.search import diff_envelopes, run_envelope

    t0 = _time.time()
    artifact, cached = run_envelope(
        args.budget, seed=args.seed, store=_cli_store(args),
        workers=args.workers)
    if args.out:
        with open(args.out, "w") as fh:
            _json.dump(artifact, fh, indent=2, sort_keys=True,
                       default=_json_default)
            fh.write("\n")
    if args.json:
        _print_json(artifact)
    else:
        cells = artifact["cells"]
        failing = sum(1 for s in cells.values() if not s["pass"])
        print(f"qa envelope seed={artifact['seed']} "
              f"budget={artifact['budget']} suite={artifact['suite']}")
        print(f"  detector: " + " ".join(
            f"{k}={v}" for k, v in sorted(
                artifact["detector"].items())))
        print(f"  coverage: {artifact['coverage']} cells "
              f"({artifact['coverage'] - failing} pass, {failing} fail)")
        if artifact["min_confidence"] is not None:
            print(f"  lowest detector confidence: "
                  f"{artifact['min_confidence']:.3f}")
        print(f"  fingerprint: {artifact['fingerprint']}")
    print(f"[{_time.time() - t0:.1f}s"
          f"{', cached' if cached else ''}]", file=sys.stderr)
    if args.check:
        with open(args.check) as fh:
            baseline = _json.load(fh)
        delta = diff_envelopes(baseline, artifact)
        for cell in delta["regressions"]:
            print(f"REGRESSION: {cell} passed in baseline, fails now")
        for cell in delta["fixed"]:
            print(f"fixed: {cell}")
        print(f"envelope check: {len(delta['regressions'])} regressions, "
              f"{len(delta['fixed'])} fixed, "
              f"{len(delta['new_cells'])} new cells, "
              f"{len(delta['lost_cells'])} lost cells")
        if delta["regressions"]:
            return 1
    return 0


def cmd_qa_shrink(args) -> int:
    """``repro qa shrink CASE.json``: re-minimize a corpus case."""
    import time as _time

    from .qa.corpus import case_for, load_case, save_case
    from .qa.oracles import ORACLES
    from .qa.scenario import run_scenario
    from .qa.shrink import shrink

    case = load_case(args.case)
    oracle_name = args.oracle or case.oracle
    by_name = {o.name: o for o in ORACLES}
    if oracle_name not in by_name:
        print(f"unknown oracle {oracle_name!r}; known: "
              f"{', '.join(sorted(by_name))}", file=sys.stderr)
        return 2
    result = shrink(case.scenario, by_name[oracle_name], run_scenario)
    print(f"{result.runs} runs, {len(result.steps)} steps")
    for step in result.steps:
        print(f"  - {step}")
    print(result.scenario.label())
    out = args.out or args.case.rsplit("/", 1)[0] or "."
    new_case = case_for(result.scenario, oracle_name,
                        origin=f"re-shrunk from {case.name}",
                        created=_time.strftime("%Y-%m-%d"))
    path = save_case(new_case, out)
    print(f"wrote {path}")
    return 0


def cmd_qa_corpus(args) -> int:
    """``repro qa corpus``: list (and optionally replay) the corpus."""
    from .qa.corpus import load_corpus, replay_case

    cases = load_corpus(args.dir)
    if not cases and not args.json:
        print(f"no corpus cases under {args.dir}")
        return 0
    failed = 0
    rows = []
    for case in cases:
        findings = []
        if args.replay:
            _, findings = replay_case(case)
            failed += bool(findings)
        rows.append({"name": case.name, "oracle": case.oracle,
                     "label": case.scenario.label(),
                     "findings": [str(f) for f in findings]})
    if args.json:
        _print_json({"dir": args.dir, "replayed": args.replay,
                     "passed": len(cases) - failed, "total": len(cases),
                     "cases": rows})
        return 1 if failed else 0
    for row in rows:
        line = f"{row['name']}  oracle={row['oracle']}  {row['label']}"
        if args.replay:
            status = "FAIL" if row["findings"] else "pass"
            print(f"[{status}] {line}")
            for finding in row["findings"]:
                print(f"    ! {finding}")
        else:
            print(line)
    if args.replay:
        print(f"{len(cases) - failed}/{len(cases)} corpus cases pass")
    return 1 if failed else 0


def cmd_serve(args) -> int:
    """``repro serve``: run the always-on experiment service."""
    import asyncio

    from .serve.server import serve_main

    store = _cli_store(args)
    clean = asyncio.run(serve_main(
        host=args.host, port=args.port, store=store,
        queue_depth=args.queue_depth, concurrency=args.concurrency,
        job_workers=args.job_workers, timeout_s=args.job_timeout,
        rate=args.rate, burst=args.burst,
        drain_grace_s=args.drain_grace))
    return 0 if clean else 1


def cmd_cluster(args) -> int:
    """``repro cluster status``: probe every node, list run manifests."""
    from .cluster import (Membership, collect_metrics, list_journals,
                          parse_cluster)
    from .serve.client import ServeClient
    from .store import ArtifactStore

    membership = Membership(parse_cluster(args.nodes))
    membership.tick()
    rows = membership.status()
    journals = list_journals(ArtifactStore(args.root))
    merged = collect_metrics(
        [ServeClient(n.host, n.port, timeout=10.0, connect_timeout=2.0)
         for n in membership.nodes]) if args.metrics else None
    if args.json:
        payload = {"nodes": rows, "journals": journals}
        if args.metrics:
            payload["metrics"] = merged
        _print_json(payload)
        return 0 if membership.live() else 1
    for row in rows:
        health = row["health"]
        extra = ""
        if health:
            extra = (f"  queued={health.get('queued', '?')} "
                     f"running={health.get('running', '?')} "
                     f"jobs={health.get('jobs', '?')}")
        print(f"{row['node']:24s} {row['state']:9s}{extra}")
    live = len(membership.live())
    print(f"{live}/{len(membership.nodes)} nodes live")
    if journals:
        print("cluster runs (local journal):")
        for row in journals:
            counts = " ".join(f"{k}={v}" for k, v
                              in row["by_status"].items())
            print(f"  {row['run'][:16]}  {row['status']:9s} "
                  f"{row['tasks']} tasks  {counts}")
    if args.metrics:
        print("merged cluster metrics:")
        _print_registry(sorted(merged.items()), indent="  ", width=40)
    return 0 if live else 1


def cmd_synth_ndt(args) -> int:
    """``repro synth-ndt``: write a synthetic NDT dataset as JSONL."""
    from .ndt.synth import SyntheticNdtGenerator
    dataset = SyntheticNdtGenerator(seed=args.seed or 0) \
        .generate(args.flows)
    dataset.save_jsonl(args.out)
    print(f"wrote {len(dataset)} records to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree (exposed for tests)."""
    from .core.axes import declared
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'How I Learned to Stop Worrying "
                     "About CCA Contention' (HotNets '23)"))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiments")
    p_list.set_defaults(fn=cmd_list)

    def add_cache_flags(p, with_resume: bool = True):
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the result store entirely")
        if with_resume:
            p.add_argument("--resume", action="store_true",
                           help="resume an interrupted campaign from "
                                "its checkpoint manifest (skip paths "
                                "it quarantined as failing)")

    def add_json_flag(p):
        p.add_argument("--json", action="store_true",
                       help="print one machine-readable JSON document "
                            "to stdout instead of the report text")

    def add_experiment_flags(p):
        """What ``run``/``trace``/``metrics`` share: the experiment
        name and every flag :func:`_experiment_command` passes on."""
        p.add_argument("experiment")
        p.add_argument("--smoke", action="store_true",
                       help="reduced parameters, seconds not minutes")
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int,
                       help="worker processes for parallel experiments "
                            "(default: $REPRO_WORKERS, then CPU count)")
        for axis in declared("run", "path"):
            axis.add_flag(p)
        p.add_argument("--flows", type=int,
                       help="population size for flow-count experiments "
                            "(fig2 runs shard by shard in bounded "
                            "memory at any size)")
        p.add_argument("--chunk-size", type=int, dest="chunk_size",
                       help="flows per shard of the NDT pipeline "
                            "(fig2, fig2_scale) -- the memory and "
                            "checkpoint/resume unit")
        add_cache_flags(p)
        add_json_flag(p)

    p_run = sub.add_parser("run", help="run an experiment")
    add_experiment_flags(p_run)
    p_run.add_argument("--out", help="directory for CSV/JSON artifacts")
    p_run.add_argument("--force", action="store_true",
                       help="overwrite existing results under --out "
                            "instead of versioning them")
    p_run.add_argument("--cluster", metavar="NODES",
                       help="shard the experiment's inner work across "
                            "repro serve nodes (host1:8765,host2,...) "
                            "and merge results into the local store; "
                            "byte-identical to a local run "
                            "(see SERVING.md)")
    p_run.set_defaults(fn=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="run an experiment with event tracing to JSONL")
    add_experiment_flags(p_trace)
    p_trace.add_argument("--out", default="trace.jsonl",
                         help="JSONL output path (default: trace.jsonl)")
    p_trace.add_argument("--kinds",
                         help="comma-separated event kinds to keep "
                              "(default: all)")
    p_trace.set_defaults(fn=cmd_trace)

    p_metrics = sub.add_parser(
        "metrics", help="run an experiment and print the metrics registry")
    add_experiment_flags(p_metrics)
    p_metrics.add_argument("--out",
                           help="directory for report + registry snapshot")
    p_metrics.set_defaults(fn=cmd_metrics)

    p_store = sub.add_parser(
        "store", help="inspect and prune the result store")
    p_store.add_argument("--root",
                         help="store directory (default: $REPRO_STORE, "
                              "then ~/.cache/repro)")
    store_sub = p_store.add_subparsers(dest="store_command",
                                       required=True)
    store_sub.add_parser("stat", help="totals, hit rates, checkpoints")
    p_store_ls = store_sub.add_parser("ls", help="list store entries")
    p_store_ls.add_argument("--kind",
                            help="only entries of this kind "
                                 "(path, sweep, experiment, fig2)")
    p_store_ls.add_argument("--limit", type=int, default=30)
    p_store_gc = store_sub.add_parser(
        "gc", help="evict by age and/or LRU byte budget")
    p_store_gc.add_argument("--max-age-days", type=float,
                            help="evict entries not accessed in this "
                                 "many days")
    p_store_gc.add_argument("--max-bytes", type=int,
                            help="then evict least-recently-used "
                                 "entries down to this budget")
    p_store.set_defaults(fn=cmd_store)

    p_quick = sub.add_parser("quicklook",
                             help="probe one emulated path")
    p_quick.add_argument("--cross", default="reno",
                         help="cross traffic type (reno, bbr, video, "
                              "poisson, cbr, none)")
    p_quick.add_argument("--duration", type=float, default=30.0)
    p_quick.add_argument("--seed", type=int)
    for axis in declared("path"):
        axis.add_flag(p_quick)
    p_quick.set_defaults(fn=cmd_quicklook)

    p_qa = sub.add_parser(
        "qa", help="simulator QA: fuzz, shrink, regression corpus")
    qa_sub = p_qa.add_subparsers(dest="qa_command", required=True)

    def add_shrink_flags(p):
        """What ``fuzz`` and ``search`` do with the failures found."""
        p.add_argument("--corpus-out", default="qa-failures",
                       help="directory for shrunk failing scenarios")
        p.add_argument("--max-shrink", type=int, default=5,
                       help="max failures to shrink after the campaign")
        p.add_argument("--no-shrink", action="store_true",
                       help="report failures without shrinking them")

    def add_search_flags(p):
        """What ``search`` and ``envelope`` share: the report is a pure
        function of seed and budget."""
        p.add_argument("--budget", type=int, default=200,
                       help="candidate scenarios to evaluate")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int,
                       help="evaluation parallelism (wall-clock only; "
                            "output is worker-count invariant)")
        add_json_flag(p)

    p_fuzz = qa_sub.add_parser(
        "fuzz", help="run a budgeted scenario-fuzzing campaign "
                     "(the search, unguided, on packet)")
    p_fuzz.add_argument("--budget", type=int, default=200,
                        help="number of scenarios to sample and judge")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (the scenario stream is a "
                             "pure function of it)")
    add_shrink_flags(p_fuzz)
    add_json_flag(p_fuzz)
    p_fuzz.set_defaults(fn=cmd_qa_search, guided=False, backend="packet")
    p_search = qa_sub.add_parser(
        "search", help="coverage-guided adversarial scenario search")
    add_search_flags(p_search)
    add_shrink_flags(p_search)
    p_search.add_argument("--cluster", metavar="NODES",
                          help="evaluate candidates across repro serve "
                               "nodes (host1:8765,...); the report "
                               "stays byte-identical to a local run")
    p_search.set_defaults(fn=cmd_qa_search, guided=True, backend="fluid")
    p_envelope = qa_sub.add_parser(
        "envelope", help="produce the robustness-envelope artifact")
    add_search_flags(p_envelope)
    p_envelope.add_argument("--no-cache", action="store_true",
                            help="recompute even if the store has a "
                                 "matching envelope")
    p_envelope.add_argument("--out",
                            help="write the artifact JSON to this file")
    p_envelope.add_argument("--check", metavar="BASELINE",
                            help="diff against a baseline envelope "
                                 "JSON; exit 1 on pass->fail "
                                 "regressions")
    p_envelope.set_defaults(fn=cmd_qa_envelope)
    p_shrink = qa_sub.add_parser(
        "shrink", help="re-minimize a saved corpus case")
    p_shrink.add_argument("case", help="path to a corpus JSON file")
    p_shrink.add_argument("--out", help="output directory (default: "
                                        "alongside the input case)")
    p_shrink.add_argument("--oracle",
                          help="oracle to preserve (default: the case's)")
    p_shrink.set_defaults(fn=cmd_qa_shrink)
    p_corpus = qa_sub.add_parser(
        "corpus", help="list or replay the regression corpus")
    p_corpus.add_argument("--dir", default="tests/corpus",
                          help="corpus directory")
    p_corpus.add_argument("--replay", action="store_true",
                          help="re-run every case through the oracles")
    add_json_flag(p_corpus)
    p_corpus.set_defaults(fn=cmd_qa_corpus)

    p_synth = sub.add_parser("synth-ndt",
                             help="generate a synthetic NDT dataset")
    p_synth.add_argument("--flows", type=int, default=9_984)
    p_synth.add_argument("--out", default="ndt.jsonl")
    p_synth.add_argument("--seed", type=int)
    p_synth.set_defaults(fn=cmd_synth_ndt)

    p_serve = sub.add_parser(
        "serve", help="run the always-on experiment service (HTTP)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="listen port (0 picks a free one)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="bounded job queue size; beyond it "
                              "submissions get 429 + Retry-After")
    p_serve.add_argument("--concurrency", type=int, default=2,
                         help="jobs executed at once")
    p_serve.add_argument("--job-workers", type=int,
                         help="worker processes each job may use "
                              "(default: $REPRO_WORKERS, then CPU count)")
    p_serve.add_argument("--job-timeout", type=float,
                         help="per-job wall-clock budget in seconds "
                              "(default: none)")
    p_serve.add_argument("--rate", type=float, default=2.0,
                         help="per-client sustained submissions/second "
                              "(0 disables rate limiting)")
    p_serve.add_argument("--burst", type=float, default=10.0,
                         help="per-client burst allowance")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         help="seconds to wait for in-flight jobs on "
                              "SIGTERM before checkpointing them")
    add_cache_flags(p_serve, with_resume=False)
    p_serve.set_defaults(fn=cmd_serve)

    p_cluster = sub.add_parser(
        "cluster", help="coordinate work across repro serve nodes")
    cluster_sub = p_cluster.add_subparsers(dest="cluster_command",
                                           required=True)
    p_cstatus = cluster_sub.add_parser(
        "status", help="probe every node and list cluster-run "
                       "manifests")
    p_cstatus.add_argument("--nodes", required=True, metavar="NODES",
                           help="comma-separated host[:port] list")
    p_cstatus.add_argument("--root",
                           help="local store root (default: "
                                "$REPRO_STORE, then ~/.cache/repro)")
    p_cstatus.add_argument("--metrics", action="store_true",
                           help="also print the merged cluster-wide "
                                "metrics snapshot")
    add_json_flag(p_cstatus)
    p_cstatus.set_defaults(fn=cmd_cluster)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 success, 1 failure (any :class:`ReproError` is
    reported on stderr), 2 usage error (argparse).
    """
    args = build_parser().parse_args(argv)
    from .errors import ReproError
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

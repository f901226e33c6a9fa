"""CI smoke for the result store: cache hits, resume, fault recovery.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/cache_smoke.py

Asserts, against a throwaway store root:

1. A small campaign run twice re-executes **nothing** the second time
   (>= 90 % cache hits required by ISSUE 3; this proves 100 %), with
   the hit/miss/task accounting read from the obs metrics registry.
   The pure-hit run leaves ``index.json`` byte- and mtime-identical,
   and a fresh handle's ``stat()`` still reports every hit.
2. A run under ``REPRO_FAULT_RATE`` recovers every injected fault via
   retries and converges to the byte-identical golden result.
3. An interrupted campaign resumes, re-executing only the unfinished
   paths.
"""

import os
import pickle
import sys
import tempfile

N_PATHS = 8
SEED = 5
DURATION = 6.0
FAULT_RATE = "0.25"


def fresh_campaign():
    from repro.core.campaign import Campaign
    return Campaign(n_paths=N_PATHS, seed=SEED, duration=DURATION)


def check(label, condition, detail=""):
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}{': ' + detail if detail else ''}")
    if not condition:
        raise SystemExit(f"cache smoke failed: {label} ({detail})")


def main() -> int:
    os.environ["REPRO_STORE"] = tempfile.mkdtemp(prefix="repro-ci-store-")
    os.environ.pop("REPRO_CACHE", None)
    os.environ.pop("REPRO_FAULT_RATE", None)

    from repro.obs.metrics import REGISTRY
    from repro.runtime import FaultPolicy
    from repro.store import ArtifactStore

    def counter(name):
        return REGISTRY.counter(name).value

    print(f"campaign: n_paths={N_PATHS} seed={SEED} duration={DURATION}")

    print("golden run (no store)")
    golden = fresh_campaign().run(workers=2, store=None)
    golden_bytes = [pickle.dumps(r) for r in golden.results]

    print("cold run (populates store)")
    store = ArtifactStore()
    REGISTRY.reset()
    first = fresh_campaign().run(workers=2, store=store)
    check("cold run computed every path",
          counter("store.hits") == 0 and counter("pool.tasks") == N_PATHS,
          f"hits={counter('store.hits')} tasks={counter('pool.tasks')}")
    check("cold run matches golden",
          [pickle.dumps(r) for r in first.results] == golden_bytes)

    print("warm run (must be pure cache)")
    REGISTRY.reset()
    index_path = store.root / "index.json"
    index_before = (index_path.read_bytes(), index_path.stat().st_mtime_ns)
    second = fresh_campaign().run(workers=2, store=store)
    hits, tasks = counter("store.hits"), counter("pool.tasks")
    check("hits left index.json untouched",
          index_before == (index_path.read_bytes(),
                           index_path.stat().st_mtime_ns))
    persisted = ArtifactStore().stat()["hits"]
    check("hit accounting survives the handle", persisted == hits,
          f"fresh stat hits={persisted} registry={hits}")
    check("zero re-executions", tasks == 0, f"pool.tasks={tasks}")
    check(">= 90% cache hits", hits >= 0.9 * N_PATHS,
          f"{hits}/{N_PATHS}")
    check("warm run matches golden",
          [pickle.dumps(r) for r in second.results] == golden_bytes)

    print(f"fault-injected run (REPRO_FAULT_RATE={FAULT_RATE})")
    os.environ["REPRO_FAULT_RATE"] = FAULT_RATE
    REGISTRY.reset()
    faulted = fresh_campaign().run(
        workers=2, store=ArtifactStore(tempfile.mkdtemp(
            prefix="repro-ci-faulted-")),
        policy=FaultPolicy(retries=10, backoff_s=0.0))
    injected = counter("pool.injected_faults")
    retries = counter("pool.retries")
    check("faults were injected", injected > 0, f"injected={injected}")
    check("no path permanently failed", not faulted.failed,
          f"failed={len(faulted.failed)} retries={retries}")
    check("faulted run converges to golden result",
          [pickle.dumps(r) for r in faulted.results] == golden_bytes)
    os.environ.pop("REPRO_FAULT_RATE")

    print("interrupted run resumes from checkpoints")

    class StopAfter:
        def __init__(self, n):
            self.n = n

        def __call__(self, done, total):
            if done >= self.n:
                raise KeyboardInterrupt

    partial_store = ArtifactStore(tempfile.mkdtemp(
        prefix="repro-ci-resume-"))
    try:
        fresh_campaign().run(workers=1, store=partial_store,
                             progress=StopAfter(3))
        raise SystemExit("interrupt did not propagate")
    except KeyboardInterrupt:
        pass
    checkpointed = partial_store.stat()["entries"]
    check("interrupt left checkpoints", 0 < checkpointed < N_PATHS,
          f"{checkpointed}/{N_PATHS}")
    REGISTRY.reset()
    resumed = fresh_campaign().run(workers=2, store=partial_store,
                                   resume=True)
    check("resume re-executed only the remainder",
          counter("pool.tasks") == N_PATHS - checkpointed,
          f"tasks={counter('pool.tasks')} expected={N_PATHS - checkpointed}")
    check("resumed run matches golden",
          [pickle.dumps(r) for r in resumed.results] == golden_bytes)

    print("cache smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

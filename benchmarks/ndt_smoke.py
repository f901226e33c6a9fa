"""CI smoke for the sharded NDT pipeline: memory + equivalence gates.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/ndt_smoke.py              # 100k flows
    PYTHONPATH=src python benchmarks/ndt_smoke.py --flows 1000000  # nightly

Asserts:

1. A ``--flows``-sized fig2 run (default 100k) completes with peak
   RSS under ``--rss-budget-mib`` (default 600 MiB), read from
   ``resource.getrusage``.  Materializing the same population would
   need O(N) memory (~1 GiB at 100k, ~10 GiB at 1M); the pipeline
   holds one chunk plus O(shards) mergeable partials, so the gate
   proves the out-of-core claim rather than just timing it.
2. At small N a many-shard run's aggregates are byte-identical to the
   one-shard run's (same ``aggregate_fingerprint``), across two
   different chunk sizes.
"""

import argparse
import resource
import sys
import time

DEFAULT_FLOWS = 100_000
DEFAULT_CHUNK = 5_000
DEFAULT_RSS_BUDGET_MIB = 600
EQUALITY_FLOWS = 4_000
SEED = 2023


def peak_rss_mib() -> float:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss_kib / 1024.0


def check(label, condition, detail=""):
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}{': ' + detail if detail else ''}")
    if not condition:
        raise SystemExit(f"ndt smoke failed: {label} ({detail})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=DEFAULT_FLOWS)
    parser.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK)
    parser.add_argument("--rss-budget-mib", type=float,
                        default=DEFAULT_RSS_BUDGET_MIB)
    args = parser.parse_args()

    from repro.ndt.stream import run_pipeline_streaming

    baseline = peak_rss_mib()
    print(f"baseline RSS after imports: {baseline:.0f} MiB")

    # -- gate 1: out-of-core streamed run stays under the RSS budget --
    print(f"streamed run: flows={args.flows} chunk={args.chunk_size} "
          f"budget={args.rss_budget_mib:.0f} MiB")
    start = time.monotonic()
    result = run_pipeline_streaming(
        args.flows, seed=SEED, chunk_size=args.chunk_size, store=None)
    elapsed = time.monotonic() - start
    peak = peak_rss_mib()
    rate_us = 1e6 * elapsed / args.flows
    print(f"  {args.flows} flows in {elapsed:.1f}s "
          f"({rate_us:.0f} us/flow), {len(result.shards)} shards, "
          f"peak RSS {peak:.0f} MiB")

    check("streamed run covers every flow", result.total == args.flows,
          f"total={result.total}")
    check("peak RSS under budget", peak < args.rss_budget_mib,
          f"{peak:.0f} MiB vs budget {args.rss_budget_mib:.0f} MiB")
    frac = result.fraction_possible_contention
    check("possible-contention fraction in plausible band",
          0.02 < frac < 0.25, f"{frac:.4f}")

    # -- gate 2: any sharding == one shard, byte for byte --
    print(f"equality check: flows={EQUALITY_FLOWS} "
          f"(many shards vs one)")
    one_shard = run_pipeline_streaming(
        EQUALITY_FLOWS, seed=SEED, chunk_size=EQUALITY_FLOWS, store=None)
    golden = one_shard.aggregate_fingerprint()
    for chunk in (512, 1000):
        streamed = run_pipeline_streaming(
            EQUALITY_FLOWS, seed=SEED, chunk_size=chunk, store=None)
        check(f"chunk={chunk} aggregates byte-identical",
              streamed.aggregate_fingerprint() == golden,
              f"{streamed.aggregate_fingerprint()[:12]} vs "
              f"{golden[:12]}")

    print("ndt smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

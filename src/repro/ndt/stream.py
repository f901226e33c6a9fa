"""The §3.1 runner: one sharded, out-of-core pipeline.

At M-Lab's actual monthly scale (millions of NDT rows) a materialized
dataset is gigabytes of snapshots, so the analysis runs shard by shard
in bounded memory at every size:

1. The population is cut into :class:`ShardSpec`\\ s -- *descriptions*
   of dataset slices, a few integers each.  Per-flow seeding in
   :class:`~repro.ndt.synth.SyntheticNdtGenerator` means any shard is
   regenerable in isolation, on any process or machine.
2. :func:`analyse_shard` renders one shard and hands the records to
   :func:`~repro.ndt.pipeline.analyse_records`, which runs the §3.1
   filters and the change-point search over the shard as one array per
   series length and folds the flows into a
   :class:`~repro.ndt.pipeline.Fig2Result` partial (integer counts,
   CDF sketches, quality tallies).  Peak memory is one chunk of
   records, regardless of the population size.
3. :func:`run_pipeline_streaming` fans shards out with
   :func:`~repro.runtime.parallel_map` -- or, given a store, through
   the checkpointing :class:`~repro.store.ResumableScheduler`, making
   million-flow runs resumable at shard granularity -- and merges the
   partials.  Merging is commutative/associative/idempotent, so the
   aggregates (``aggregate_fingerprint()``) are byte-identical for any
   chunk size or worker count, the single shard included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import AnalysisError, ConfigError
from ..obs.metrics import REGISTRY as _METRICS
from ..runtime import FaultPolicy, parallel_map
from .pipeline import Fig2Result, analyse_records
from .synth import DEFAULT_CHUNK_SIZE, PopulationModel, SyntheticNdtGenerator

_AUTO = object()


@dataclass(frozen=True)
class ShardSpec:
    """A regenerable slice of a synthetic NDT population.

    The spec *is* the data: a worker holding only these fields can
    reproduce records [start, start+count) bit-for-bit and analyse
    them.  Its fingerprint (:meth:`key`) content-addresses the shard's
    :class:`~repro.ndt.pipeline.Fig2Result` partial in the store.
    """

    seed: int
    start: int
    count: int
    min_relative_shift: float = 0.25
    model: PopulationModel = PopulationModel()

    def __post_init__(self):
        if self.start < 0:
            raise ConfigError(f"shard start must be >= 0: {self.start}")
        if self.count <= 0:
            raise ConfigError(
                f"shard count must be positive: {self.count}")

    @property
    def shard_id(self) -> str:
        return f"shard-{self.start:09d}+{self.count}"

    def key(self) -> str:
        """Store fingerprint of this shard's analysis result."""
        from ..store import fingerprint
        return fingerprint(self, kind="fig2-shard")


def shard_specs(n_flows: int, seed: int = 0,
                model: PopulationModel | None = None,
                chunk_size: int = DEFAULT_CHUNK_SIZE,
                min_relative_shift: float = 0.25) -> list[ShardSpec]:
    """Cut an ``n_flows`` population into shard specs."""
    if n_flows <= 0:
        raise ConfigError(f"n_flows must be positive: {n_flows}")
    if chunk_size <= 0:
        raise ConfigError(f"chunk_size must be positive: {chunk_size}")
    model = model if model is not None else PopulationModel()
    return [
        ShardSpec(seed=seed, start=start,
                  count=min(chunk_size, n_flows - start),
                  min_relative_shift=min_relative_shift, model=model)
        for start in range(0, n_flows, chunk_size)
    ]


def analyse_shard(spec: ShardSpec) -> Fig2Result:
    """Render and analyse one shard; returns its partial.

    Pure function of the spec -- the unit of work the scheduler
    checkpoints and cluster nodes execute.
    """
    generator = SyntheticNdtGenerator(model=spec.model, seed=spec.seed)
    dataset = generator.generate_shard(spec.start, spec.count)
    return analyse_records(dataset.records,
                           min_relative_shift=spec.min_relative_shift,
                           start=spec.start)


def merge_partials(partials: Sequence[Fig2Result]) -> Fig2Result:
    """Fold shard partials into one result (any order, duplicates ok)."""
    result = Fig2Result.empty()
    for partial in partials:
        result = result.merge(partial)
    return result


def stream_run_key(specs: Sequence[ShardSpec]) -> str:
    """Fingerprint of a whole run's config."""
    from ..store import fingerprint
    return fingerprint({"shards": [spec.key() for spec in specs]},
                       kind="fig2-stream")


def run_pipeline_streaming(n_flows: int, seed: int = 0,
                           model: PopulationModel | None = None,
                           chunk_size: int = DEFAULT_CHUNK_SIZE,
                           min_relative_shift: float = 0.25,
                           workers: int | None = None,
                           store=_AUTO, resume: bool = False) -> Fig2Result:
    """Run the §3.1 pipeline over ``n_flows`` synthetic flows, out of
    core.

    Aggregates are byte-identical for any ``chunk_size``/``workers``
    (compare ``aggregate_fingerprint()``) and peak memory is one
    shard, so populations far beyond RAM run on a laptop.

    Args:
        n_flows: population size (the paper's month of NDT is ~10M).
        seed: population seed.
        model: population model (default :class:`PopulationModel`).
        chunk_size: flows per shard -- the memory/checkpoint unit.
        min_relative_shift: level-shift significance threshold.
        workers: shard-level fan-out (``None`` defers to
            ``REPRO_WORKERS`` then the CPU count).
        store: artifact store for per-shard checkpoints and the merged
            result; defaults to the ambient store, ``None`` disables
            persistence (pure parallel_map).
        resume: resume a prior interrupted run's manifest -- finished
            shards become cache hits, only the remainder executes, and
            shards the manifest quarantined are reported failed again
            instead of being retried.  Shards run under the default
            :class:`FaultPolicy`.
    """
    if store is _AUTO:
        from ..store import active_store
        store = active_store()
    specs = shard_specs(n_flows, seed=seed, model=model,
                        chunk_size=chunk_size,
                        min_relative_shift=min_relative_shift)

    if store is None:
        partials = parallel_map(analyse_shard, specs, workers=workers,
                                chunk_size=1)
        return merge_partials(partials)

    run_key = stream_run_key(specs)
    cached = store.get(run_key)
    if cached is not None:
        _METRICS.counter("ndt.stream.merged_hits").inc()
        return cached

    from ..store import ResumableScheduler
    scheduler = ResumableScheduler(store, run_key, resume=resume,
                                   kind="fig2-shard")
    report = scheduler.run(
        analyse_shard, specs, [spec.key() for spec in specs],
        labels=[spec.shard_id for spec in specs], workers=workers,
        policy=FaultPolicy())
    _METRICS.counter("ndt.stream.shards_cached").inc(report.hits)
    _METRICS.counter("ndt.stream.shards_computed").inc(report.computed)
    if report.failed:
        shown = report.failed[:5]
        names = ", ".join(o.label for o in shown)
        if len(report.failed) > len(shown):
            names += ", ..."
        raise AnalysisError(
            f"{len(report.failed)} shard(s) failed ({names}); a merged "
            "result cannot omit a shard, so none was produced.  Re-run "
            "with resume=False to retry them (finished shards are "
            "store hits); resume=True does not retry a quarantined "
            "shard and raises this error again")
    result = merge_partials(report.results)
    store.put(run_key, result, kind="fig2-stream",
              label=f"fig2 streamed n={n_flows} chunk={chunk_size}")
    return result

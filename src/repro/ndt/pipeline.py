"""The §3.1 passive-measurement pipeline (Figure 2).

Filter app-limited / receiver-limited / cellular flows, then search the
remaining flows' throughput snapshots for level shifts that *might*
indicate CCA contention.  Because our dataset carries ground truth, the
pipeline also reports how good this passive inference actually is --
the question the paper raises when it notes passive approaches "cannot
conclusively determine the presence (or absence) of CCA contention".

This module is the per-flow and per-shard half: :func:`analyse_flow`
judges one record, :func:`analyse_records` folds a list of records
into a one-shard :class:`Fig2Result`, and results merge.
:func:`repro.ndt.stream.run_pipeline_streaming` cuts a synthetic
population into shards and merges their results; records already in
memory are one shard.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.changepoint import throughput_level_shift
from ..errors import AnalysisError
from ..analysis.stats import CdfSketch, bootstrap_ci
from ..units import ordered_sum
from .filters import FlowCategory, categorize_records
from .schema import NdtRecord


@dataclass(frozen=True)
class FlowAnalysis:
    """Pipeline outcome for one flow."""

    uuid: str
    category: FlowCategory
    num_level_shifts: int
    mean_throughput_bps: float
    inferred_contention: bool
    true_contention: bool
    true_class: str


@dataclass(frozen=True)
class QualityTally:
    """Commutative detector-quality counts against ground truth.

    Pure integers, so tallies from any sharding of a dataset merge to
    the same result in any order.
    """

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    lost_to_filters: int = 0

    @classmethod
    def of(cls, flows) -> "QualityTally":
        tp = fp = fn = lost = 0
        for f in flows:
            if f.category is FlowCategory.REMAINING:
                if f.inferred_contention:
                    if f.true_contention:
                        tp += 1
                    else:
                        fp += 1
                elif f.true_contention:
                    fn += 1
            elif f.true_contention:
                lost += 1
        return cls(true_positives=tp, false_positives=fp,
                   false_negatives=fn, lost_to_filters=lost)

    def merge(self, other: "QualityTally") -> "QualityTally":
        return QualityTally(
            true_positives=self.true_positives + other.true_positives,
            false_positives=self.false_positives + other.false_positives,
            false_negatives=self.false_negatives + other.false_negatives,
            lost_to_filters=self.lost_to_filters + other.lost_to_filters)


@dataclass(frozen=True)
class ShardRow:
    """Per-shard aggregate retained for cluster-bootstrap CIs.

    Category keys are stored as strings (enum values) so shard rows
    fingerprint canonically.
    """

    shard_id: str
    start: int
    count: int
    counts: tuple[tuple[str, int], ...]
    remaining_with_shifts: int
    quality: QualityTally


@dataclass
class Fig2Result:
    """Aggregate results backing Figure 2 -- a mergeable monoid.

    :func:`analyse_records` builds one per shard, dropping the
    per-flow analyses, and :meth:`merge` folds shards together.  All
    aggregate state (integer counts, :class:`QualityTally`,
    :class:`CdfSketch`) merges commutatively and associatively, so any
    sharding of a population folds to the aggregates of its one-shard
    run -- :meth:`aggregate_fingerprint` is the equality oracle the
    tests gate on.

    Attributes:
        total: number of flows analysed.
        counts: flows per §3.1 category.
        remaining_with_shifts: remaining flows showing >= 1 level shift.
        quality: ground-truth detector tallies.
        sketches: per-category mean-throughput CDF sketches.
        shards: per-shard aggregate rows (population CIs, merge
            bookkeeping).
    """

    total: int
    counts: dict[FlowCategory, int]
    remaining_with_shifts: int
    quality: QualityTally
    sketches: dict[FlowCategory, CdfSketch]
    shards: tuple[ShardRow, ...] = ()

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_flows(cls, flows, start: int = 0) -> "Fig2Result":
        """Aggregate one shard's per-flow analyses into a result.

        Args:
            flows: :class:`FlowAnalysis` items, in dataset order.
            start: dataset position of the first flow; with the count
                it names the shard, the merge identity
                (:attr:`repro.ndt.stream.ShardSpec.shard_id`).
        """
        flows = list(flows)
        if not flows:
            return cls.empty()
        counts: dict[FlowCategory, int] = {}
        for f in flows:
            counts[f.category] = counts.get(f.category, 0) + 1
        remaining_with_shifts = sum(
            1 for f in flows
            if f.category is FlowCategory.REMAINING
            and f.inferred_contention)
        quality = QualityTally.of(flows)
        shard = ShardRow(
            shard_id=f"shard-{start:09d}+{len(flows)}",
            start=start, count=len(flows),
            counts=tuple(sorted((cat.value, n)
                                for cat, n in counts.items())),
            remaining_with_shifts=remaining_with_shifts,
            quality=quality)
        return cls(total=len(flows), counts=counts,
                   remaining_with_shifts=remaining_with_shifts,
                   quality=quality, sketches=_sketches_of(flows),
                   shards=(shard,))

    @classmethod
    def empty(cls) -> "Fig2Result":
        """The merge identity: zero flows, no shards."""
        return cls(total=0, counts={}, remaining_with_shifts=0,
                   quality=QualityTally(), sketches={}, shards=())

    def merge(self, other: "Fig2Result") -> "Fig2Result":
        """Combine two partials over disjoint shard sets.

        Idempotent: merging a result whose shards are already included
        returns self unchanged (and symmetrically), so replayed or
        duplicated shard deliveries are harmless.  Partially
        overlapping shard sets raise :class:`AnalysisError` -- sketches
        cannot subtract, so a partial overlap is unrecoverable
        double-counting.
        """
        mine = {s.shard_id for s in self.shards}
        theirs = {s.shard_id for s in other.shards}
        if theirs <= mine:
            return self
        if mine <= theirs:
            return other
        if mine & theirs:
            raise AnalysisError(
                "cannot merge partially overlapping shard sets: "
                f"{sorted(mine & theirs)} appear on both sides")
        counts = dict(self.counts)
        for cat, n in other.counts.items():
            counts[cat] = counts.get(cat, 0) + n
        sketches = dict(self.sketches)
        for cat, sketch in other.sketches.items():
            sketches[cat] = (sketches[cat].merge(sketch)
                             if cat in sketches else sketch)
        return Fig2Result(
            total=self.total + other.total, counts=counts,
            remaining_with_shifts=(self.remaining_with_shifts
                                   + other.remaining_with_shifts),
            quality=self.quality.merge(other.quality),
            sketches=sketches,
            shards=tuple(sorted(self.shards + other.shards,
                                key=lambda s: (s.start, s.shard_id))))

    # -- headline fractions ---------------------------------------------------

    def fraction(self, category: FlowCategory) -> float:
        if not self.total:
            raise AnalysisError(
                "empty dataset: no flows to take a fraction of")
        return self.counts.get(category, 0) / self.total

    @property
    def fraction_filtered(self) -> float:
        """Flows removed by the §3.1 filters."""
        return 1.0 - self.fraction(FlowCategory.REMAINING)

    @property
    def fraction_possible_contention(self) -> float:
        """Flows that survive filtering AND show a level shift -- the
        paper's upper bound on passively-visible contention."""
        if not self.total:
            raise AnalysisError(
                "empty dataset: no flows to take a fraction of")
        return self.remaining_with_shifts / self.total

    def throughput_sketch(self, category: FlowCategory | None = None
                          ) -> CdfSketch:
        """Mean-throughput CDF sketch of a category, or of all flows.

        ``None`` merges every category's sketch into the population
        sketch -- exact, because sketch merging just adds counts.
        """
        if category is not None:
            if category not in self.sketches:
                raise AnalysisError(
                    f"no flows in category {category.value!r}")
            return self.sketches[category]
        merged = CdfSketch()
        for sketch in self.sketches.values():
            merged = merged.merge(sketch)
        if merged.total == 0:
            raise AnalysisError("empty dataset: no throughput sketch")
        return merged

    # -- population confidence intervals --------------------------------------

    def fraction_ci(self, confidence: float = 0.95
                    ) -> tuple[float, float, float]:
        """Cluster-bootstrap CI for the headline fraction,
        :attr:`fraction_possible_contention`.

        Resamples whole shards with replacement (shards are the
        independent units a result retains), so it needs a result
        with >= 2 shards.

        Returns:
            (point_estimate, ci_low, ci_high).
        """
        if len(self.shards) < 2:
            raise AnalysisError(
                "population CIs need >= 2 shards: re-run with a "
                f"smaller chunk size (have {len(self.shards)})")

        hits = [float(s.remaining_with_shifts) for s in self.shards]
        sizes = [float(s.count) for s in self.shards]
        ratio = _ShardRatio(tuple(hits), tuple(sizes))
        return bootstrap_ci(range(len(self.shards)), statistic=ratio,
                            confidence=confidence)

    # -- ground-truth validation (synthetic datasets only) ----------------------

    def detector_quality(self) -> dict[str, float]:
        """Precision/recall of "level shift => contention" on the
        remaining flows, measured against synthetic ground truth."""
        q = self.quality
        tp, fp, fn = (q.true_positives, q.false_positives,
                      q.false_negatives)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        return {
            "true_positives": float(tp),
            "false_positives": float(fp),
            "false_negatives": float(fn),
            "precision": precision,
            "recall": recall,
            "contending_flows_lost_to_filters": float(q.lost_to_filters),
        }

    def summary_rows(self) -> list[tuple[str, int, float]]:
        """(category, count, fraction) rows for the Figure 2 table."""
        rows = [(cat.value, self.counts.get(cat, 0), self.fraction(cat))
                for cat in FlowCategory]
        rows.append(("remaining_with_level_shift",
                     self.remaining_with_shifts,
                     self.fraction_possible_contention))
        return rows

    def aggregate_fingerprint(self) -> str:
        """Fingerprint of the order-free aggregates.

        Deliberately excludes the shard bookkeeping: a many-shard run
        and the one-shard run over the same population hash equal.
        """
        from ..store import fingerprint
        return fingerprint({
            "total": self.total,
            "counts": {cat.value: n for cat, n in self.counts.items()},
            "remaining_with_shifts": self.remaining_with_shifts,
            "quality": self.quality,
            "sketches": {cat.value: sketch
                         for cat, sketch in self.sketches.items()},
        }, kind="fig2-aggregate")


class _ShardRatio:
    """Picklable ratio-of-sums statistic over resampled shard indices."""

    def __init__(self, hits: tuple[float, ...], sizes: tuple[float, ...]):
        self.hits = hits
        self.sizes = sizes

    def __call__(self, indices) -> float:
        idx = [int(i) for i in indices]
        denom = ordered_sum(self.sizes[i] for i in idx)
        if denom == 0:
            return 0.0
        return ordered_sum(self.hits[i] for i in idx) / denom


def _sketches_of(flows) -> dict[FlowCategory, CdfSketch]:
    samples: dict[FlowCategory, list[float]] = {}
    for f in flows:
        samples.setdefault(f.category, []).append(f.mean_throughput_bps)
    return {cat: CdfSketch().add_samples(vals)
            for cat, vals in samples.items()}


def _judge(records, min_relative_shift: float):
    """Each record's category and level-shift count (0 unless
    ``REMAINING``): the §3.1 filters over the batch, then one detector
    call per series length on the ``REMAINING`` rows of the throughput
    array the filters computed."""
    categories, remaining = categorize_records(records)
    shifts = [0] * len(records)
    for group, series in remaining:
        results = throughput_level_shift(
            series, min_relative_shift=min_relative_shift)
        for i, result in zip(group, results):
            shifts[i] = result.num_changes
    return categories, shifts


def analyse_flow(record: NdtRecord, min_relative_shift: float = 0.25,
                 category: FlowCategory | None = None,
                 level_shifts: int = 0) -> FlowAnalysis:
    """Run the §3.1 analysis on one flow.  :func:`analyse_records`
    passes the ``category`` and ``level_shifts`` it found for the flow
    in its batch; without a category both are computed here."""
    if category is None:
        categories, shifts = _judge([record], min_relative_shift)
        category, level_shifts = categories[0], shifts[0]
    return FlowAnalysis(
        uuid=record.uuid,
        category=category,
        num_level_shifts=level_shifts,
        mean_throughput_bps=record.mean_throughput_bps,
        inferred_contention=level_shifts > 0,
        true_contention=record.true_contention,
        true_class=record.true_class,
    )


def analyse_records(records, min_relative_shift: float = 0.25,
                    start: int = 0) -> Fig2Result:
    """Analyse a list of records as one shard.

    What :func:`repro.ndt.stream.analyse_shard` runs on the slice it
    has rendered, and the entry point for records that exist only in
    memory (a reloaded JSONL, :class:`~repro.ndt.collect.NdtCollector`
    output).  ``start`` is the dataset position of the first record.
    Records need not be equally long (:func:`_judge`).
    """
    records = list(records)
    categories, shifts = _judge(records, min_relative_shift)
    return Fig2Result.from_flows(
        [analyse_flow(record, min_relative_shift, category, n_shifts)
         for record, category, n_shifts
         in zip(records, categories, shifts)], start=start)

"""Property harness for the sharded NDT pipeline.

Three equivalence laws guard it:

1. **Shard invariance** -- any shard rendered in isolation reproduces
   its slice of the whole dataset record for record.
2. **Merge laws** -- ``Fig2Result.merge`` is commutative, associative,
   and idempotent over any partition of the population into shards.
3. **Sharding invariance** -- any chunk size and any worker count give
   the aggregate fingerprint of the one-shard run (``chunk_size >=
   n_flows``: what the materialized runner used to compute).

All generators are seeded (Hypothesis-style randomized cases, fully
deterministic re-runs).
"""

import os
import random
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.analysis.stats import CdfSketch
from repro.errors import AnalysisError, ConfigError
from repro.ndt import (Fig2Result, PopulationModel, ShardSpec,
                       SyntheticNdtGenerator, analyse_flow, analyse_shard,
                       merge_partials, run_pipeline_streaming,
                       shard_specs)
from repro.ndt.stream import stream_run_key
from repro.store import ArtifactStore

SEED = 20230601
N = 600


@pytest.fixture(scope="module")
def dataset():
    return SyntheticNdtGenerator(seed=SEED).generate(N)


@pytest.fixture(scope="module")
def partials():
    """Twelve 50-flow shard partials covering the population."""
    return [analyse_shard(s)
            for s in shard_specs(N, seed=SEED, chunk_size=50)]


@pytest.fixture(scope="module")
def golden():
    """The one-shard run every sharding must reproduce."""
    return run_pipeline_streaming(N, seed=SEED, chunk_size=N,
                                  store=None, workers=1)


class TestChunkInvariance:
    def test_any_shard_regenerates_in_isolation(self, dataset):
        rng = random.Random(1)
        for _ in range(5):
            start = rng.randrange(0, N - 1)
            count = rng.randrange(1, N - start)
            shard = SyntheticNdtGenerator(seed=SEED) \
                .generate_shard(start, count)
            assert shard.records == dataset.records[start:start + count]

    def test_records_carry_calibrated_cca(self, dataset):
        ccas = {r.cca for r in dataset.records}
        assert ccas <= {"cubic", "bbr", "reno", "other"}
        fractions = {c: sum(r.cca == c for r in dataset.records) / N
                     for c in ccas}
        assert fractions["cubic"] == pytest.approx(0.64, abs=0.08)
        assert fractions["bbr"] == pytest.approx(0.22, abs=0.08)

    def test_different_seeds_differ(self):
        a = SyntheticNdtGenerator(seed=1).generate_shard(5, 1).records[0]
        b = SyntheticNdtGenerator(seed=2).generate_shard(5, 1).records[0]
        assert a != b

    def test_bad_shard_args_raise(self):
        gen = SyntheticNdtGenerator(seed=0)
        with pytest.raises(ConfigError):
            gen.generate_shard(-1, 5)
        with pytest.raises(ConfigError):
            gen.generate_shard(0, 0)


class TestMergeLaws:
    def test_commutative_over_random_partitions(self, partials, golden):
        want = golden.aggregate_fingerprint()
        rng = random.Random(2)
        for _ in range(6):
            shuffled = partials[:]
            rng.shuffle(shuffled)
            merged = merge_partials(shuffled)
            assert merged.aggregate_fingerprint() == want
            assert merged.total == N

    def test_associative(self, partials):
        a, b, c = (merge_partials(partials[0:4]),
                   merge_partials(partials[4:8]),
                   merge_partials(partials[8:12]))
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.aggregate_fingerprint() \
            == right.aggregate_fingerprint()
        assert left.shards == right.shards

    def test_idempotent_under_replayed_shards(self, partials, golden):
        rng = random.Random(3)
        replayed = partials + rng.choices(partials, k=5)
        merged = merge_partials(replayed)
        assert merged.total == N
        assert merged.aggregate_fingerprint() \
            == golden.aggregate_fingerprint()

    def test_empty_is_identity(self, partials):
        one = partials[0]
        assert Fig2Result.empty().merge(one) is one
        assert one.merge(Fig2Result.empty()) is one

    def test_random_partition_boundaries(self, dataset, golden):
        """Uneven, randomly cut partitions all fold to the golden."""
        flows = [analyse_flow(r) for r in dataset.records]
        rng = random.Random(4)
        for _ in range(4):
            n_cuts = rng.randrange(1, 9)
            cuts = sorted(rng.sample(range(1, N), n_cuts))
            bounds = [0] + cuts + [N]
            parts = [
                Fig2Result.from_flows(flows[lo:hi], start=lo)
                for lo, hi in zip(bounds, bounds[1:])
            ]
            rng.shuffle(parts)
            assert merge_partials(parts).aggregate_fingerprint() \
                == golden.aggregate_fingerprint()

    def test_partial_overlap_raises(self, partials):
        a = merge_partials(partials[0:3])
        b = merge_partials(partials[2:5])  # shares shard 2
        with pytest.raises(AnalysisError, match="overlapping"):
            a.merge(b)


class TestStreamedEqualsMaterialized:
    def test_aggregates_byte_identical(self, golden):
        streamed = run_pipeline_streaming(N, seed=SEED, chunk_size=64,
                                          store=None, workers=1)
        assert streamed.aggregate_fingerprint() \
            == golden.aggregate_fingerprint()
        assert streamed.counts == golden.counts
        assert streamed.detector_quality() == golden.detector_quality()
        assert (len(golden.shards), len(streamed.shards)) == (1, 10)

    def test_chunk_size_invariant(self):
        fps = {
            run_pipeline_streaming(150, seed=3, chunk_size=cs,
                                   store=None, workers=1)
            .aggregate_fingerprint()
            for cs in (11, 50, 150, 500)
        }
        assert len(fps) == 1

    def test_workers_1_vs_4_fingerprint_identical(self):
        one = run_pipeline_streaming(300, seed=SEED, chunk_size=30,
                                     store=None, workers=1)
        four = run_pipeline_streaming(300, seed=SEED, chunk_size=30,
                                      store=None, workers=4)
        assert one.aggregate_fingerprint() \
            == four.aggregate_fingerprint()
        assert one.shards == four.shards
        assert [s.shard_id for s in one.shards] == [
            s.shard_id for s in shard_specs(300, seed=SEED, chunk_size=30)]

    def test_streamed_store_roundtrip_hits_cache(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = run_pipeline_streaming(120, seed=5, chunk_size=40,
                                       store=store, workers=1)
        from repro.obs.metrics import REGISTRY
        before = REGISTRY.counter("ndt.stream.shards_computed").value
        again = run_pipeline_streaming(120, seed=5, chunk_size=40,
                                       store=store, workers=1)
        after = REGISTRY.counter("ndt.stream.shards_computed").value
        assert after == before  # merged-result hit: zero shards re-run
        assert again.aggregate_fingerprint() \
            == first.aggregate_fingerprint()

    def test_sketch_quantiles_track_exact_cdf(self, dataset, golden):
        from repro.analysis.stats import Cdf
        from repro.ndt.filters import FlowCategory, categorize
        exact = Cdf.from_samples(
            [r.mean_throughput_bps for r in dataset.records
             if categorize(r) is FlowCategory.REMAINING])
        sketch = golden.throughput_sketch(FlowCategory.REMAINING)
        for q in (0.25, 0.5, 0.9):
            assert sketch.quantile(q) \
                == pytest.approx(exact.quantile(q), rel=0.08)
        assert sketch.vmin == exact.values[0]
        assert sketch.vmax == exact.values[-1]


class TestFailedShards:
    def test_failed_shard_raises_and_resume_raises_again(
            self, tmp_path, monkeypatch):
        """A merged result cannot omit a shard: a failed one fails the
        run, and ``resume=True`` re-reports it instead of skipping it."""
        def flaky(spec):
            if spec.start == 40:
                raise RuntimeError("injected shard failure")
            return analyse_shard(spec)

        monkeypatch.setattr("repro.ndt.stream.analyse_shard", flaky)
        run = dict(seed=5, chunk_size=40, workers=1,
                   store=ArtifactStore(tmp_path / "store"))
        with pytest.raises(AnalysisError, match="cannot omit a shard") as err:
            run_pipeline_streaming(120, **run)
        message = str(err.value)
        assert "1 shard(s) failed (shard-000000040+40);" in message
        assert "..." not in message and "skip" not in message
        monkeypatch.undo()
        # The shard would now succeed, but the manifest quarantined it.
        with pytest.raises(AnalysisError, match="shard-000000040"):
            run_pipeline_streaming(120, resume=True, **run)
        assert run_pipeline_streaming(120, **run).total == 120


class TestEmptyDatasetGuards:
    def test_fraction_raises_on_empty(self):
        from repro.ndt.filters import FlowCategory
        empty = Fig2Result.empty()
        with pytest.raises(AnalysisError, match="empty dataset"):
            empty.fraction(FlowCategory.REMAINING)
        with pytest.raises(AnalysisError, match="empty dataset"):
            empty.fraction_possible_contention

    def test_fraction_ok_on_populated(self, golden):
        from repro.ndt.filters import FlowCategory
        assert 0.0 <= golden.fraction(FlowCategory.REMAINING) <= 1.0
        assert 0.0 <= golden.fraction_possible_contention <= 1.0

    def test_ci_needs_two_shards(self, golden):
        with pytest.raises(AnalysisError, match=">= 2 shards"):
            golden.fraction_ci()  # one shard


class TestCdfSketch:
    def test_merge_matches_bulk(self):
        rng = np.random.default_rng(0)
        x = rng.lognormal(15, 2, 4000)
        whole = CdfSketch().add_samples(x)
        parts = [CdfSketch().add_samples(x[i::7]) for i in range(7)]
        rng2 = random.Random(0)
        rng2.shuffle(parts)
        merged = parts[0]
        for p in parts[1:]:
            merged = merged.merge(p)
        assert merged == whole

    def test_binning_mismatch_raises(self):
        with pytest.raises(AnalysisError, match="binning"):
            CdfSketch().merge(CdfSketch(bins=64))

    def test_empty_queries_raise(self):
        s = CdfSketch()
        with pytest.raises(AnalysisError):
            s.quantile(0.5)
        with pytest.raises(AnalysisError):
            s.fraction_below(1.0)
        with pytest.raises(AnalysisError):
            s.points()

    def test_out_of_range_samples_clamp_to_extrema(self):
        s = CdfSketch().add_samples([1e-3, 1e12, 1e6])
        assert s.total == 3
        assert s.vmin == 1e-3
        assert s.vmax == 1e12
        assert s.quantile(1.0) == 1e12
        assert s.quantile(1e-9) == 1e-3

    def test_nonfinite_rejected(self):
        with pytest.raises(AnalysisError):
            CdfSketch().add_samples([1.0, float("nan")])


_KILL_MODEL = "PopulationModel(test_duration=10.0, snapshot_interval=0.05)"

_CHILD_SRC = f"""
import sys
sys.path.insert(0, {repr(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))})
from repro.ndt import PopulationModel, run_pipeline_streaming
from repro.store import ArtifactStore
run_pipeline_streaming(120, seed=11, chunk_size=20,
                       model={_KILL_MODEL},
                       workers=1, store=ArtifactStore(), resume=True)
"""


class TestKillResume:
    """SIGKILL a streaming run mid-shard; resume must re-execute only
    the unfinished shards and converge byte-identically."""

    @pytest.mark.slow
    def test_sigkill_mid_shard_resumes_exactly(self, tmp_path):
        import json

        store_root = tmp_path / "store"
        store = ArtifactStore(store_root)
        model = PopulationModel(test_duration=10.0,
                                snapshot_interval=0.05)
        specs = shard_specs(120, seed=11, chunk_size=20, model=model)
        manifest = store.checkpoint_path(stream_run_key(specs))

        env = dict(os.environ, REPRO_STORE=str(store_root),
                   REPRO_WORKERS="1")
        child = subprocess.Popen([sys.executable, "-c", _CHILD_SRC],
                                 env=env)
        try:
            # Wait until some (not all) shards are checkpointed.
            deadline = time.time() + 120
            done = 0
            while time.time() < deadline:
                if manifest.exists():
                    try:
                        done = len(json.loads(
                            manifest.read_text()).get("done", {}))
                    except ValueError:
                        done = 0
                    if done >= 2:
                        break
                if child.poll() is not None:
                    pytest.fail("child finished before it could be "
                                "killed; slow the kill model down")
                time.sleep(0.01)
            assert done >= 2, "child never checkpointed a shard"
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)

        checkpointed = len(json.loads(
            manifest.read_text()).get("done", {}))
        assert 2 <= checkpointed < len(specs), \
            "kill landed outside the mid-run window"

        # Resume: only the unfinished shards may execute.
        from repro.obs.metrics import REGISTRY
        computed_before = REGISTRY.counter(
            "ndt.stream.shards_computed").value
        resumed = run_pipeline_streaming(
            120, seed=11, chunk_size=20, model=model, workers=1,
            store=store, resume=True)
        computed = REGISTRY.counter(
            "ndt.stream.shards_computed").value - computed_before
        assert computed == len(specs) - checkpointed

        # Byte-identical to an uninterrupted run in a fresh store.
        golden = run_pipeline_streaming(
            120, seed=11, chunk_size=20, model=model, workers=1,
            store=ArtifactStore(tmp_path / "golden"))
        assert resumed.aggregate_fingerprint() \
            == golden.aggregate_fingerprint()
        assert resumed.shards == golden.shards

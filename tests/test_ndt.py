"""Tests for the NDT schema, synthetic population, filters, and pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigError
from repro.ndt import (Fig2Result, FlowCategory, NdtCollector, NdtDataset,
                       NdtRecord, PopulationModel, ShardSpec,
                       SyntheticNdtGenerator, analyse_flow, analyse_records,
                       analyse_shard, categorize, infer_cellular,
                       is_app_limited, is_rwnd_limited)
from repro.ndt.schema import SNAPSHOT_FIELDS, throughput_rows
from repro.sim import Simulator, dumbbell
from repro.tcp.tcp_info import TcpInfoSnapshot
from repro.units import mbps, ms


def snap(elapsed_s, acked, app_us=0.0, rwnd_us=0.0, tput=1e6):
    return TcpInfoSnapshot(
        elapsed_time_us=elapsed_s * 1e6, bytes_acked=acked,
        bytes_sent=acked, bytes_retrans=0, busy_time_us=elapsed_s * 1e6,
        rwnd_limited_us=rwnd_us, app_limited_us=app_us,
        cwnd_limited_us=0.0, min_rtt_s=0.02, smoothed_rtt_s=0.03,
        throughput_bps=tput, retransmits=0)


def record(snaps=None, access="cable", app_us=0.0, rwnd_us=0.0,
           rates=None, true_contention=False):
    if snaps is None:
        rates = rates if rates is not None else [1e6] * 10
        acked, snaps, total = 0, [], 0.0
        for i, rate in enumerate(rates):
            total += 1.0
            acked += int(rate)
            snaps.append(snap(total, acked, app_us=app_us,
                              rwnd_us=rwnd_us, tput=rate))
    return NdtRecord.from_snapshots(
        snaps, uuid="t", duration_s=10.0, access_type=access,
        access_rate_bps=10e6, true_contention=true_contention)


def collected_record():
    """An NDT-style test collected from the packet simulator."""
    sim = Simulator()
    collector = NdtCollector(sim, dumbbell(sim, mbps(10), ms(30)), "t")
    collector.start()
    sim.run(until=NdtCollector.duration + 0.5)
    return collector.record(access_rate_bps=mbps(10))


class TestSchema:
    def test_throughput_series_from_snapshots(self):
        rec = record(rates=[1e6, 2e6, 3e6])
        series = throughput_rows([rec])[0]
        assert series == pytest.approx([2e6, 3e6])

    def test_mean_throughput(self):
        rec = record(rates=[2e6] * 10)
        assert rec.mean_throughput_bps == pytest.approx(2e6)

    def test_requires_two_snapshots(self):
        with pytest.raises(AnalysisError, match="two snapshots"):
            record(snaps=[snap(1.0, 100)])
        with pytest.raises(AnalysisError, match="two snapshots"):
            record(snaps=[])

    @pytest.mark.parametrize("columns", [
        pytest.param(lambda cols: cols[:-1], id="one-column-short"),
        pytest.param(lambda cols: cols + (cols[0],), id="one-column-extra"),
        pytest.param(lambda cols: (cols[0][:-1],) + cols[1:], id="ragged"),
    ])
    def test_malformed_columns_rejected(self, columns):
        good = record(rates=[1e6] * 3)
        with pytest.raises(AnalysisError, match="column"):
            NdtRecord(uuid="x", duration_s=1.0, access_type="cable",
                      access_rate_bps=1e6,
                      columns=columns(good.columns))

    def test_columns_are_field_tuples(self):
        rec = record()
        listed = replace(rec, columns=[list(c) for c in rec.columns])
        assert listed == rec
        assert all(type(c) is tuple for c in listed.columns)
        assert rec.column("bytes_acked") == tuple(
            s.bytes_acked for s in rec.snapshots)
        assert rec.final == rec.snapshots[-1]
        assert rec.n_snapshots == len(rec.snapshots) == 10

    def test_from_snapshots_round_trips_and_hashes(self):
        records = SyntheticNdtGenerator(seed=4).generate(30).records
        for rec in records + [collected_record()]:
            meta = {k: v for k, v in vars(rec).items() if k != "columns"}
            clone = NdtRecord.from_snapshots(rec.snapshots, **meta)
            assert clone == rec
            assert hash(clone) == hash(rec)
            assert NdtRecord.from_json(rec.to_json()) == rec
        assert len(set(records + records)) == len(records)

    def test_unknown_access_type_rejected(self):
        with pytest.raises(AnalysisError):
            record(access="carrier-pigeon")

    def test_json_round_trip(self):
        rec = record(rates=[1e6, 2e6, 3e6], true_contention=True)
        clone = NdtRecord.from_json(rec.to_json())
        assert clone.uuid == rec.uuid
        assert clone.true_contention
        assert throughput_rows([clone])[0] == pytest.approx(
            throughput_rows([rec])[0])

    def test_dataset_jsonl_round_trip(self, tmp_path):
        ds = SyntheticNdtGenerator(seed=3).generate(20)
        path = tmp_path / "data.jsonl"
        ds.save_jsonl(path)
        loaded = NdtDataset.load_jsonl(path)
        assert len(loaded) == 20
        assert loaded.records[0].uuid == ds.records[0].uuid


class TestFilters:
    def test_app_limited_detection(self):
        assert is_app_limited(record(app_us=1.0))
        assert not is_app_limited(record())

    def test_rwnd_limited_detection(self):
        assert is_rwnd_limited(record(rwnd_us=1.0))
        assert not is_rwnd_limited(record())

    def test_cellular_by_metadata(self):
        assert infer_cellular(record(access="cellular"))
        assert infer_cellular(record(access="satellite"))

    def test_cellular_by_variability(self):
        rng = np.random.default_rng(0)
        wild = [5e6 * float(np.exp(rng.normal(0, 0.5)))
                for _ in range(20)]
        assert infer_cellular(record(access="cable", rates=wild))
        assert not infer_cellular(record(access="cable",
                                         rates=[5e6] * 20))

    def test_categorize_order(self):
        # App-limited wins even if also cellular.
        rec = record(access="cellular", app_us=5.0)
        assert categorize(rec) is FlowCategory.APP_LIMITED
        assert categorize(record(access="cellular")) \
            is FlowCategory.CELLULAR
        assert categorize(record()) is FlowCategory.REMAINING


class TestSynth:
    def test_generates_requested_count(self):
        assert len(SyntheticNdtGenerator(seed=1).generate(50)) == 50

    def test_deterministic_given_seed(self):
        a = SyntheticNdtGenerator(seed=9).generate(10)
        b = SyntheticNdtGenerator(seed=9).generate(10)
        for ra, rb in zip(a.records, b.records):
            assert ra.to_json() == rb.to_json()

    def test_seed_changes_data(self):
        a = SyntheticNdtGenerator(seed=1).generate(5)
        b = SyntheticNdtGenerator(seed=2).generate(5)
        assert any(ra.to_json() != rb.to_json()
                   for ra, rb in zip(a.records, b.records))

    def test_class_mix_roughly_respected(self):
        ds = SyntheticNdtGenerator(seed=5).generate(2000)
        counts = {}
        for rec in ds.records:
            counts[rec.true_class] = counts.get(rec.true_class, 0) + 1
        assert counts["app_limited"] / 2000 == pytest.approx(0.45,
                                                             abs=0.05)
        assert counts["policed"] / 2000 == pytest.approx(0.07, abs=0.03)

    def test_contended_flows_flagged(self):
        ds = SyntheticNdtGenerator(seed=5).generate(500)
        contended = [r for r in ds.records
                     if r.true_class == "bulk_contended"]
        assert contended
        assert all(r.true_contention for r in contended)
        others = [r for r in ds.records
                  if r.true_class != "bulk_contended"]
        assert not any(r.true_contention for r in others)

    def test_app_limited_records_have_positive_counter(self):
        ds = SyntheticNdtGenerator(seed=6).generate(300)
        for rec in ds.records:
            if rec.true_class == "app_limited":
                assert rec.app_limited_us > 0

    def test_rendered_fields_are_plain_python_numbers(self):
        # Columns are converted with ``tolist()``: no numpy scalar may
        # leak into a record (they pickle larger and print differently).
        records = SyntheticNdtGenerator(seed=11).generate(80).records
        assert {"cellular", "cable"} <= {r.access_type for r in records}
        for rec in records:
            for name, column in zip(SNAPSHOT_FIELDS, rec.columns):
                assert {type(v) for v in column} <= {int, float}, name
            assert NdtRecord.from_json(rec.to_json()) == rec

    def test_shard_builds_no_snapshot_rows(self, monkeypatch):
        # Records are rendered and analysed as columns; a row object
        # built per snapshot is what the columnar record removed.
        built = []
        init = TcpInfoSnapshot.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TcpInfoSnapshot, "__init__", counting_init)
        result = analyse_shard(ShardSpec(seed=1, start=0, count=200))
        assert result.total == 200
        assert built == []
        record()  # rows built by hand are counted
        assert built

    def test_record_is_its_row_of_any_shard(self):
        # A shard is rendered as one (flows x snapshots) batch: a row
        # may depend on neither its neighbours nor the batch size.
        gen = SyntheticNdtGenerator(seed=13)
        start = 1000
        shard = gen.generate_shard(start, 400).records
        firsts = {}
        for i, rec in enumerate(shard, start):
            firsts.setdefault(rec.access_type, i)
        assert {"cellular", "satellite"} <= set(firsts)
        for i in sorted({*range(start, start + 400, 37),
                         *firsts.values(), start + 399}):
            alone = gen.generate_shard(i, 1).records[0]
            assert alone == shard[i - start]
            assert alone.to_json() == shard[i - start].to_json()

    def test_bad_mix_rejected(self):
        with pytest.raises(ConfigError):
            PopulationModel(class_mix=(("app_limited", 0.5),))

    def test_invalid_count_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticNdtGenerator().generate(0)


class TestPipeline:
    @pytest.fixture(scope="class")
    def flows(self):
        ds = SyntheticNdtGenerator(seed=42).generate(1000)
        return [analyse_flow(r) for r in ds.records]

    @pytest.fixture(scope="class")
    def result(self, flows):
        return Fig2Result.from_flows(flows)

    def test_counts_partition_dataset(self, result):
        assert sum(result.counts.values()) == result.total == 1000

    def test_majority_filtered(self, result):
        # Paper shape: most flows are app/rwnd-limited or cellular.
        assert result.fraction_filtered > 0.5

    def test_possible_contention_small(self, result):
        # Paper shape: only a small residual shows level shifts.
        assert result.fraction_possible_contention < 0.25

    def test_recall_on_clean_remaining_flows(self, result):
        quality = result.detector_quality()
        assert quality["recall"] > 0.9

    def test_policed_flows_are_false_positives(self, flows):
        policed_hits = [f for f in flows
                        if f.true_class == "policed"
                        and f.inferred_contention]
        assert policed_hits, (
            "policed flows should trip the change-point detector -- "
            "that ambiguity is the paper's motivation for active "
            "measurement")

    def test_bulk_clean_rarely_flagged(self, flows):
        clean = [f for f in flows
                 if f.true_class == "bulk_clean"
                 and f.category is FlowCategory.REMAINING]
        flagged = sum(1 for f in clean if f.inferred_contention)
        assert flagged / max(1, len(clean)) < 0.2

    def test_mixed_length_records_batch_like_flows_alone(self):
        # Ragged records (an NdtCollector's, a truncated test) are
        # grouped by series length; 3 snapshots are too few to search.
        rng = np.random.default_rng(5)

        def stepped(n, at, after):
            rates = np.where(np.arange(n) < at, 10e6, after)
            return record(rates=list(rates * rng.normal(1.0, 0.01, n)))

        recs = [stepped(40, 20, 4e6), stepped(10, 5, 7e6),
                stepped(39, 12, 10e6), stepped(40, 40, 10e6),
                stepped(3, 1, 2e6), stepped(39, 30, 5e6),
                stepped(40, 8, 6e6), record(app_us=5.0)]
        alone = [analyse_flow(r) for r in recs]
        assert [f.num_level_shifts for f in alone] == [1, 1, 0, 0, 0, 1,
                                                       1, 0]
        together = analyse_records(recs, start=7)
        expected = Fig2Result.from_flows(alone, start=7)
        assert together.shards == expected.shards
        assert together.aggregate_fingerprint() \
            == expected.aggregate_fingerprint()
        for rec, flow in zip(recs, alone):
            assert analyse_records([rec]).remaining_with_shifts \
                == int(flow.inferred_contention)

    def test_batch_assigns_each_record_what_it_gets_alone(self,
                                                          monkeypatch):
        # Categories and level shifts are computed per length group, as
        # arrays: a ragged batch must give each record exactly what
        # categorize/analyse_flow give it on its own.
        from repro.ndt import pipeline
        rng = np.random.default_rng(0)
        wild = record(access="cable",
                      rates=[5e6 * float(np.exp(rng.normal(0, 0.5)))
                             for _ in range(20)])
        synth = SyntheticNdtGenerator(seed=21).generate(120).records
        recs = [collected_record(), *synth[:60], wild, record(),
                *synth[60:], record(rates=[4e6] * 30), collected_record()]
        assert len({r.n_snapshots for r in recs}) == 4
        alone = [(categorize(r), analyse_flow(r).num_level_shifts)
                 for r in recs]
        assert {category for category, _ in alone} == set(FlowCategory)
        assert any(shifts for _, shifts in alone)
        seen = []
        real = pipeline.analyse_flow

        def spy(rec, min_relative_shift, category, level_shifts):
            seen.append((category, level_shifts))
            return real(rec, min_relative_shift, category, level_shifts)

        monkeypatch.setattr(pipeline, "analyse_flow", spy)
        analyse_records(recs)
        assert seen == alone

    def test_stalled_record_in_a_batch_is_named(self):
        synth = SyntheticNdtGenerator(seed=3).generate(60).records
        target = next(r for r in synth
                      if categorize(r) is FlowCategory.REMAINING)
        elapsed = list(target.columns[0])
        elapsed[7] = elapsed[6]  # two snapshots at one instant
        stalled = replace(target, uuid="synth-stalled",
                          columns=(elapsed, *target.columns[1:]))
        assert stalled.n_snapshots == target.n_snapshots
        with pytest.raises(AnalysisError, match="synth-stalled"):
            analyse_records([*synth[:30], stalled, *synth[30:]])

    def test_analyse_flow_on_contended_record(self):
        gen = SyntheticNdtGenerator(seed=7)
        ds = gen.generate(300)
        contended = [r for r in ds.records
                     if r.true_class == "bulk_contended"
                     and r.access_type not in ("cellular", "satellite")]
        hits = sum(1 for r in contended
                   if analyse_flow(r).inferred_contention)
        assert hits / len(contended) > 0.8

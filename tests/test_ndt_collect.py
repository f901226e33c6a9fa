"""Tests for collecting NDT records from live simulations."""

import pytest

from repro.cca import RenoCca
from repro.ndt import NdtCollector, analyse_flow
from repro.ndt.filters import FlowCategory
from repro.sim import Simulator, dumbbell
from repro.tcp import Connection
from repro.units import mbps, ms, to_mbps

from .helpers import advertise_window


def collect(rwnd=None, competitor_at=None, rate_mbps=50.0):
    sim = Simulator()
    path = dumbbell(sim, mbps(rate_mbps), ms(30))
    collector = NdtCollector(sim, path, "test")
    if rwnd is not None:
        advertise_window(collector.connection, rwnd)
    collector.start()
    if competitor_at is not None:
        def rival():
            conn = Connection(sim, path, "rival", RenoCca())
            conn.sender.set_infinite_backlog()
        sim.schedule(competitor_at, rival)
    sim.run(until=NdtCollector.duration + 0.5)
    return collector.record(access_rate_bps=mbps(rate_mbps))


class TestCollector:
    def test_snapshot_cadence(self):
        record = collect()
        assert len(record.snapshots) == 40  # 10 s / 250 ms
        elapsed = [s.elapsed_time_us for s in record.snapshots]
        assert elapsed == sorted(elapsed)

    def test_bulk_test_saturates_and_is_remaining(self):
        record = collect()
        assert to_mbps(record.mean_throughput_bps) > 35.0
        analysis = analyse_flow(record)
        assert analysis.category is FlowCategory.REMAINING

    def test_clean_path_shows_no_level_shift(self):
        record = collect()
        assert not analyse_flow(record).inferred_contention

    def test_competitor_arrival_shows_level_shift(self):
        record = collect(competitor_at=4.0)
        analysis = analyse_flow(record)
        assert analysis.inferred_contention

    def test_rwnd_limited_test_categorized(self):
        record = collect(rwnd=32_000)
        analysis = analyse_flow(record)
        assert analysis.category is FlowCategory.RWND_LIMITED

    def test_record_interoperates_with_schema(self):
        record = collect()
        clone = type(record).from_json(record.to_json())
        assert clone.mean_throughput_bps == pytest.approx(
            record.mean_throughput_bps)

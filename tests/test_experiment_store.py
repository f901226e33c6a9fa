"""Tests for experiment-level store integration.

Satellite coverage from ISSUE 3: ``sweep()`` names the failing sweep
value in its exception chain (serial and pool mode);
``ExperimentResult.save`` never silently overwrites a prior report;
sweeps served from the store skip execution entirely.
"""

import functools
import json

import pytest

from repro.errors import SweepPointError
from repro.experiments.runner import (ExperimentResult, sweep,
                                      versioned_path)
from repro.obs.metrics import REGISTRY
from repro.store import ArtifactStore


def make_result(value, scale=1.0):
    return ExperimentResult(
        experiment="toy", text=f"value={value}",
        metrics={"doubled": float(value) * 2 * scale},
        tables={"rows": [{"v": value}]})


def boom_at_three(value, scale=1.0):
    if value == 3:
        raise ValueError("unstable operating point")
    return make_result(value, scale)


@pytest.fixture(autouse=True)
def _reset_metrics():
    REGISTRY.reset()
    yield
    REGISTRY.reset()


class TestSweepFailureRegression:
    def test_serial_failure_names_value_and_chains_cause(self):
        with pytest.raises(SweepPointError) as excinfo:
            sweep([1, 2, 3, 4], boom_at_three, label="rate", workers=1)
        assert "rate=3" in str(excinfo.value)
        assert "unstable operating point" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_pool_failure_names_value(self):
        # Worker exceptions cross the pool by pickling, which drops
        # __cause__ -- the message itself must carry the value.
        with pytest.raises(SweepPointError) as excinfo:
            sweep([1, 2, 3, 4], boom_at_three, label="rate", workers=2)
        assert "rate=3" in str(excinfo.value)
        assert "ValueError" in str(excinfo.value)

    def test_successful_sweep_rows_in_order(self):
        rows = sweep([1, 2, 4], boom_at_three, label="rate", workers=1)
        assert [r["rate"] for r in rows] == [1, 2, 4]
        assert [r["doubled"] for r in rows] == [2.0, 4.0, 8.0]


class TestSweepCaching:
    def test_second_sweep_runs_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        fn = functools.partial(make_result, scale=3.0)
        first = sweep([1, 2, 4], fn, label="rate", workers=1, store=store)
        REGISTRY.reset()
        second = sweep([1, 2, 4], fn, label="rate", workers=1,
                       store=store)
        assert second == first
        assert REGISTRY.counter("pool.tasks").value == 0
        assert REGISTRY.counter("store.hits").value == 3

    def test_changed_fn_config_invalidates(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        sweep([1], functools.partial(make_result, scale=3.0),
              label="rate", workers=1, store=store)
        REGISTRY.reset()
        rows = sweep([1], functools.partial(make_result, scale=5.0),
                     label="rate", workers=1, store=store)
        assert REGISTRY.counter("store.hits").value == 0
        assert rows[0]["doubled"] == 10.0

    def test_new_points_extend_cached_sweep(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        fn = functools.partial(make_result, scale=1.0)
        sweep([1, 2], fn, label="rate", workers=1, store=store)
        REGISTRY.reset()
        rows = sweep([1, 2, 5], fn, label="rate", workers=1, store=store)
        assert REGISTRY.counter("store.hits").value == 2
        assert REGISTRY.counter("pool.tasks").value == 1
        assert [r["rate"] for r in rows] == [1, 2, 5]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_sweep_keeps_every_finished_point(self, tmp_path,
                                                     workers):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(SweepPointError) as excinfo:
            sweep([1, 2, 3, 4], boom_at_three, label="rate",
                  workers=workers, store=store)
        assert "rate=3" in str(excinfo.value)
        assert "ValueError" in str(excinfo.value)
        REGISTRY.reset()
        rows = sweep([1, 2, 4], boom_at_three, label="rate",
                     workers=workers, store=store)
        assert REGISTRY.counter("store.hits").value == 3
        assert REGISTRY.counter("pool.tasks").value == 0
        assert [r["doubled"] for r in rows] == [2.0, 4.0, 8.0]

    def test_repeated_value_runs_once(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        rows = sweep([2, 1, 2], make_result, label="rate", workers=1,
                     store=store)
        assert [r["rate"] for r in rows] == [2, 1, 2]
        assert REGISTRY.counter("pool.tasks").value == 2


class TestSaveVersioning:
    def test_versioned_path(self, tmp_path):
        p = tmp_path / "report.txt"
        assert versioned_path(p, 0) == p
        assert versioned_path(p, 3).name == "report.3.txt"

    def test_second_save_versions_not_overwrites(self, tmp_path):
        make_result(1).save(tmp_path)
        make_result(2).save(tmp_path)
        out = tmp_path / "toy"
        assert (out / "report.txt").read_text() == "value=1\n"
        assert (out / "report.1.txt").read_text() == "value=2\n"
        assert (out / "metrics.1.json").exists()
        assert (out / "rows.1.csv").exists()

    def test_third_save_takes_next_version(self, tmp_path):
        for value in (1, 2, 3):
            make_result(value).save(tmp_path)
        assert (tmp_path / "toy" / "report.2.txt").read_text() \
            == "value=3\n"

    def test_force_overwrites_in_place(self, tmp_path):
        make_result(1).save(tmp_path)
        written = make_result(2).save(tmp_path, force=True)
        out = tmp_path / "toy"
        assert (out / "report.txt").read_text() == "value=2\n"
        assert not (out / "report.1.txt").exists()
        assert (out / "report.txt") in written
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["metrics"]["doubled"] == 4.0

    def test_fresh_save_unversioned(self, tmp_path):
        written = make_result(1).save(tmp_path)
        names = {p.name for p in written}
        assert names == {"report.txt", "metrics.json", "rows.csv"}

"""Smoke + shape tests for the experiment harness (reduced parameters).

The full-size paper-shape assertions live in
``tests/test_paper_scale.py`` (``-m slow``); here every experiment
runs in seconds and its structural contract is checked: text renders,
metrics exist, CSV tables are well-formed, results save to disk.
"""

import inspect
import json

import pytest

from repro.experiments import (EXPERIMENTS, access_link, bwe_isolation,
                               fairness_matrix, fig2, fq_ablation,
                               subpacket, tbf_jitter, tslp_vs_elasticity)
from repro.experiments.runner import ExperimentResult


class ParamsRecorded:
    """Mixed into each experiment's class: ``result.params`` names
    every argument of the ``run`` that produced it, JSON-ready, so a
    saved ``metrics.json`` can repeat its run."""

    def test_params_name_every_run_argument(self, result):
        accepted = inspect.signature(EXPERIMENTS[result.experiment])
        assert set(result.params) == set(accepted.parameters)
        assert json.loads(json.dumps(result.params)) == result.params


class TestFig2(ParamsRecorded):
    @pytest.fixture(scope="class")
    def result(self):
        return fig2.run(n_flows=400, seed=5)

    def test_metrics_shape(self, result):
        m = result.metrics
        assert m["fraction_filtered"] > 0.5
        assert m["fraction_possible_contention"] < 0.25
        assert 0.0 <= m["detector_precision"] <= 1.0

    def test_fractions_sum_to_one(self, result):
        m = result.metrics
        total = (m["fraction_app_limited"] + m["fraction_rwnd_limited"]
                 + m["fraction_cellular"] + m["fraction_remaining"])
        assert total == pytest.approx(1.0)

    def test_tables_exported(self, result):
        assert "categories" in result.tables
        assert "throughput_cdfs" in result.tables
        assert len(result.tables["categories"]) >= 4

    def test_text_mentions_categories(self, result):
        assert "app_limited" in result.text
        assert "remaining" in result.text

    def test_save_writes_artifacts(self, result, tmp_path):
        written = result.save(tmp_path)
        names = {p.name for p in written}
        assert {"report.txt", "metrics.json",
                "categories.csv"} <= names


class TestFqAblation(ParamsRecorded):
    @pytest.fixture(scope="class")
    def result(self):
        return fq_ablation.run(pairs=(("reno", "bbr"),), duration=15.0)

    def test_fq_is_fair(self, result):
        assert result.metrics["min_jain_fq"] > 0.95

    def test_droptail_less_fair_than_fq(self, result):
        assert result.metrics["min_jain_droptail"] \
            < result.metrics["min_jain_fq"]


class TestTbfJitter(ParamsRecorded):
    @pytest.fixture(scope="class")
    def result(self):
        return tbf_jitter.run(burst_sizes_kb=(15.0, 500.0), duration=10.0)

    def test_tbf_burst_amplifies_jitter(self, result):
        assert result.metrics["span_amplification"] > 1.5

    def test_rows_cover_all_shapers(self, result):
        shapers = [r["shaper"] for r in result.tables["jitter"]]
        assert shapers[0] == "smooth"
        assert len(shapers) == 3

    def test_largest_burst_is_worst(self, result):
        rows = result.tables["jitter"]
        last, others = rows[-1], rows[1:-1]
        assert (all(last["jitter_ms"] >= r["jitter_ms"] for r in others)
                or all(last["delay_p99_ms"] >= r["delay_p99_ms"]
                       for r in others))


class TestSubpacket(ParamsRecorded):
    @pytest.fixture(scope="class")
    def result(self):
        return subpacket.run(n_flows=8, duration=60.0, window=20.0)

    def test_subpacket_bdp_below_one(self, result):
        assert result.metrics["subpacket_bdp_packets"] < 1.0

    def test_starvation_on_subpacket_link_only(self, result):
        assert result.metrics["subpacket_starved_fraction"] \
            > result.metrics["healthy_starved_fraction"]
        assert result.metrics["subpacket_timeouts"] > 0


class TestAccessLink(ParamsRecorded):
    @pytest.fixture(scope="class")
    def result(self):
        return access_link.run(duration=3.0,
                               load_fractions=(0.3, 0.8, 1.3))

    def test_allocation_matches_offered_load_below_saturation(self, result):
        assert result.metrics["max_error_below_saturation"] < 0.05

    def test_errors_appear_past_saturation(self, result):
        assert result.metrics["min_error_above_saturation"] > 0.05


class TestTslpVsElasticity(ParamsRecorded):
    @pytest.fixture(scope="class")
    def result(self):
        return tslp_vs_elasticity.run(duration=15.0)

    def test_tslp_flags_both_loaded_paths(self, result):
        assert result.metrics["tslp_flags_contention"] == 1.0
        assert result.metrics["tslp_flags_aggregate"] == 1.0

    def test_probe_discriminates(self, result):
        assert result.metrics["probe_flags_contention"] == 1.0
        assert result.metrics["probe_flags_aggregate"] == 0.0


class TestBweIsolation(ParamsRecorded):
    @pytest.fixture(scope="class")
    def result(self):
        return bwe_isolation.run(duration=8.0)

    def test_policy_enforced(self, result):
        assert abs(result.metrics["serving_share_managed"]
                   - 2.0 / 3.0) < 0.05

    def test_enforcement_tight(self, result):
        assert result.metrics["max_enforcement_error"] < 0.15


class TestFairnessMatrix(ParamsRecorded):
    """The smoke's ``ccas`` leave out vegas: a shape check whose row
    CCA is absent falls back to its neutral value (it was a KeyError)."""

    @pytest.fixture(scope="class")
    def result(self):
        return fairness_matrix.run(ccas=("reno", "bbr"), duration=2.0)

    def test_absent_row_cca_is_neutral(self, result):
        metrics = result.metrics
        assert metrics["vegas_share_vs_loss_max"] == 1.0
        assert metrics["bbr_share_vs_loss_min"] \
            == metrics["share_bbr_vs_reno"]
        assert "share_vegas_vs_reno" not in metrics


class TestElapsedRecorded:
    """Satellite audit: every registered experiment must time its run
    with Stopwatch and record ``elapsed_s`` on the result -- otherwise
    saved metrics.json artifacts silently report 0.0 s runs."""

    def test_every_run_wires_stopwatch_to_elapsed(self):
        import inspect

        for name, fn in sorted(EXPERIMENTS.items()):
            src = inspect.getsource(fn)
            assert "with Stopwatch() as watch" in src, (
                f"{name}.run() does not time itself with Stopwatch")
            assert "elapsed_s=watch.elapsed" in src, (
                f"{name}.run() never records elapsed_s from Stopwatch")

    def test_elapsed_present_at_runtime_and_in_saved_json(self, tmp_path):
        import json

        result = fig2.run(n_flows=60, seed=1)
        assert result.elapsed_s > 0.0
        result.save(tmp_path)
        payload = json.loads(
            (tmp_path / "fig2" / "metrics.json").read_text())
        assert payload["elapsed_s"] == result.elapsed_s


class TestRegistryAndResults:
    def test_registry_lists_all_experiments(self):
        assert set(EXPERIMENTS) == {
            "fig2", "fig3", "fq_ablation", "tbf_jitter", "subpacket",
            "fairness_matrix", "campaign_eval", "access_link",
            "tslp_vs_elasticity", "bwe_isolation", "cellular_robustness",
            "envelope", "robustness", "fig2_scale", "medium_contention"}

    def test_every_run_records_its_params(self):
        # ParamsRecorded checks the results tier-1 computes; the
        # experiments it never runs must at least be decorated.
        for name, fn in sorted(EXPERIMENTS.items()):
            assert hasattr(fn, "__wrapped__"), (
                f"{name}.run() is not wrapped by records_params")

    def test_result_save_round_trip(self, tmp_path):
        result = ExperimentResult(
            experiment="demo", text="hello", metrics={"x": 1.0},
            tables={"rows": [{"a": 1, "b": 2}]}, params={"p": 3})
        written = result.save(tmp_path)
        report = (tmp_path / "demo" / "report.txt").read_text()
        assert "hello" in report
        csv_text = (tmp_path / "demo" / "rows.csv").read_text()
        assert csv_text.splitlines()[0] == "a,b"
        assert len(written) == 3

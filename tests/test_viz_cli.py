"""Tests for text visualization and the CLI."""

import pytest

from repro import viz
from repro.cli import build_parser, main
from repro.errors import AnalysisError


class TestLineChart:
    def test_contains_title_and_labels(self):
        chart = viz.line_chart([0, 1, 2], [5, 3, 9], title="demo",
                               x_label="t", y_label="v")
        assert "demo" in chart
        assert "x: t" in chart

    def test_phase_markers_rendered(self):
        chart = viz.line_chart(list(range(100)), list(range(100)),
                               phases=[(0, "alpha"), (50, "beta")])
        assert "alpha" in chart
        assert "beta" in chart

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            viz.line_chart([1, 2], [1])


class TestBarAndTable:
    def test_bar_chart_scales_to_peak(self):
        chart = viz.bar_chart(["a", "b"], [1.0, 2.0])
        lines = chart.splitlines()
        assert lines[0].count("█") == 25
        assert lines[1].count("█") == 50

    def test_table_aligns_columns(self):
        text = viz.table([("a", 1), ("bbbb", 22)], header=("n", "v"))
        lines = text.splitlines()
        assert len(set(len(l) for l in lines if l.strip())) == 1


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "fig3" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "figure99"]) == 2

    def test_run_smoke_access_link(self, capsys, tmp_path):
        assert main(["run", "access_link", "--smoke",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "E8" in out
        assert (tmp_path / "access_link" / "metrics.json").exists()

    def test_quicklook_none(self, capsys):
        assert main(["quicklook", "--cross", "none",
                     "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "mean elasticity" in out

    def test_synth_ndt(self, capsys, tmp_path):
        out_file = tmp_path / "data.jsonl"
        assert main(["synth-ndt", "--flows", "25",
                     "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert len(out_file.read_text().splitlines()) == 25

    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for sub in ("list", "run", "quicklook", "synth-ndt"):
            assert sub in text

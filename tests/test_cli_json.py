"""CLI contract tests: ``--json`` documents and uniform exit codes."""

import json

import pytest

from repro.cli import main


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


class TestJsonOutput:
    def test_run_json_document(self, capsys):
        code = main(["run", "fig2", "--smoke", "--json"])
        assert code == 0
        doc = _json_out(capsys)
        assert doc["experiment"] == "fig2"
        assert doc["cached"] is False
        assert doc["written"] == []
        assert isinstance(doc["metrics"], dict) and doc["metrics"]
        assert doc["elapsed_s"] >= 0

    def test_run_json_cached_on_second_run(self, capsys):
        assert main(["run", "fig2", "--smoke", "--json"]) == 0
        first = _json_out(capsys)
        assert main(["run", "fig2", "--smoke", "--json"]) == 0
        second = _json_out(capsys)
        assert second["cached"] is True
        assert second["metrics"] == first["metrics"]

    def test_metrics_json_document(self, capsys):
        code = main(["metrics", "fig2", "--smoke", "--json"])
        assert code == 0
        doc = _json_out(capsys)
        assert doc["experiment"] == "fig2"
        assert isinstance(doc["metrics_registry"], dict)

    def test_trace_json_document(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(["trace", "fig2", "--smoke", "--json",
                     "--out", str(out)])
        assert code == 0
        doc = _json_out(capsys)
        assert doc["experiment"] == "fig2"
        assert doc["out"] == str(out)
        assert doc["events"] >= 0 and isinstance(doc["counts"], dict)
        assert out.exists()

    def test_qa_corpus_json_document(self, capsys):
        code = main(["qa", "corpus", "--dir", "tests/corpus", "--json"])
        assert code == 0
        doc = _json_out(capsys)
        assert doc["dir"] == "tests/corpus"
        assert doc["replayed"] is False
        assert doc["total"] == len(doc["cases"]) > 0
        for case in doc["cases"]:
            assert {"name", "oracle", "label", "findings"} <= set(case)

    def test_qa_fuzz_json_document(self, capsys):
        code = main(["qa", "fuzz", "--budget", "2", "--seed", "0",
                     "--no-shrink", "--json"])
        doc = _json_out(capsys)
        assert doc["budget"] == doc["evaluated"] == 2
        assert code == (1 if doc["failures"] else 0)


class TestExitCodes:
    def test_unknown_experiment_is_usage_error(self, capsys):
        assert main(["run", "nosuch"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["nosuchcommand"])
        assert exc.value.code == 2

    def test_repro_error_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        assert main(["run", "fig2", "--smoke", "--no-cache"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_parser_wiring(self):
        """The serve subcommand parses its knobs (no server started)."""
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--queue-depth", "8",
             "--concurrency", "1", "--rate", "0", "--no-cache"])
        assert args.port == 0 and args.queue_depth == 8
        assert args.rate == 0.0 and args.no_cache
        assert args.fn.__name__ == "cmd_serve"

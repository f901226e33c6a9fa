"""Tests for CSV/JSON result writers."""

import json
from dataclasses import dataclass

import pytest

from repro.core.report import write_csv, write_json


class TestCsv:
    def test_dict_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,x"

    def test_sequence_rows_with_header(self, tmp_path):
        # Sequence rows name no columns, so no header line is written.
        path = tmp_path / "out.csv"
        write_csv(path, [(1, 2), (3, 4)])
        lines = path.read_text().splitlines()
        assert lines == ["1,2", "3,4"]

    def test_empty_rows_writes_header_only(self, tmp_path):
        # An empty table has no first row to take a header from.
        path = tmp_path / "out.csv"
        write_csv(path, [])
        assert path.read_text() == ""

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.csv"
        write_csv(path, [{"v": 1}])
        assert path.exists()

    def test_explicit_header_subset(self, tmp_path):
        # The header is the first row's keys, in that row's order.
        path = tmp_path / "out.csv"
        write_csv(path, [{"b": 2, "a": 1}, {"a": 3, "b": 4}])
        assert path.read_text().splitlines() == ["b,a", "2,1", "4,3"]


class TestJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"x": [1, 2], "y": "z"})
        assert json.loads(path.read_text()) == {"x": [1, 2], "y": "z"}

    def test_dataclass_payload(self, tmp_path):
        @dataclass
        class Row:
            a: int
            b: str

        path = tmp_path / "out.json"
        write_json(path, {"row": Row(a=1, b="q")})
        assert json.loads(path.read_text()) == {"row": {"a": 1, "b": "q"}}

    def test_numpy_payload(self, tmp_path):
        import numpy as np
        path = tmp_path / "out.json"
        write_json(path, {"arr": np.array([1.5, 2.5])})
        assert json.loads(path.read_text()) == {"arr": [1.5, 2.5]}

    def test_unserializable_raises(self, tmp_path):
        with pytest.raises(TypeError):
            write_json(tmp_path / "out.json", {"bad": object()})

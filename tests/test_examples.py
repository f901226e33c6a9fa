"""Smoke tests: the example scripts run end to end.

Each example's ``main()`` is executed in-process (importing by path)
so failures surface as ordinary test failures with real tracebacks.
The slowest examples are exercised with their module-level entry only.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_directory_complete():
    names = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
    assert {"quickstart", "elasticity_probe", "mlab_style_study",
            "video_vs_bulk", "campaign_study"} <= names


def test_quickstart_runs(capsys):
    module = load_example("quickstart")
    module.probe_path("reno", duration=30.0)
    module.probe_path("cbr", duration=30.0)
    out = capsys.readouterr().out
    assert "contending" in out   # reno: confidently contending
    assert "clean" in out        # cbr: confidently clean


def test_mlab_style_study_runs(capsys):
    module = load_example("mlab_style_study")
    module.main()
    out = capsys.readouterr().out
    assert "category" in out
    assert "remaining_with_level_shift" in out


def test_video_vs_bulk_single_race(capsys):
    module = load_example("video_vs_bulk")
    row = module.race(50.0)
    assert row["video_mbps"] > 5.0
    assert row["bulk_mbps"] > 10.0

"""A compact Figure 3 run: the centerpiece experiment, reduced phases.

The full 5 x 45 s reproduction with shape assertions lives in
``tests/test_paper_scale.py``; this checks the experiment
machinery (phase sequencing, per-phase accounting, artifact tables) on
a short three-phase plan.
"""

import inspect

import pytest

from repro.experiments import fig3
from repro.traffic import Phase


@pytest.fixture(scope="module")
def result():
    phases = (Phase("reno", 15.0), Phase("video", 15.0),
              Phase("cbr", 15.0))
    return fig3.run(phases=phases, settle=6.0)


def test_params_name_every_run_argument(result):
    assert set(result.params) == set(
        inspect.signature(fig3.run).parameters)
    assert result.params["settle"] == 6.0
    assert result.params["phases"][0] == ["reno", 15.0]


def test_phase_rows_cover_plan(result):
    rows = result.tables["phases"]
    assert [r["phase"] for r in rows] == ["reno", "video", "cbr"]
    assert rows[0]["start_s"] == 0.0
    assert rows[-1]["end_s"] == 45.0


def test_contending_phase_scores_highest(result):
    m = result.metrics
    assert m["elasticity_reno"] > m["elasticity_video"]
    assert m["elasticity_reno"] > m["elasticity_cbr"]
    assert m["elasticity_reno"] > 2.0


def test_series_table_nonempty_and_ordered(result):
    series = result.tables["elasticity_series"]
    assert len(series) > 20
    times = [r["time_s"] for r in series]
    assert times == sorted(times)


def test_cross_traffic_throughput_recorded(result):
    rows = {r["phase"]: r for r in result.tables["phases"]}
    # Reno grabbed real bandwidth; CBR held its configured 12 Mbit/s.
    assert rows["reno"]["cross_mbps"] > 5.0
    assert rows["cbr"]["cross_mbps"] == pytest.approx(12.0, rel=0.25)


def test_probe_kept_measuring_throughout(result):
    rows = result.tables["phases"]
    assert all(r["probe_mbps"] > 3.0 for r in rows)

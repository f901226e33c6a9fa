"""Smoke test for the E11 cellular-robustness experiment (reduced)."""

import inspect

import pytest

from repro.experiments import cellular_robustness


@pytest.fixture(scope="module")
def result():
    return cellular_robustness.run(volatilities=(0.0, 0.1),
                                   duration=25.0)


def test_params_name_every_run_argument(result):
    assert set(result.params) == set(
        inspect.signature(cellular_robustness.run).parameters)
    assert result.params["volatilities"] == [0.0, 0.1]


def test_rows_cover_matrix(result):
    rows = result.tables["sweep"]
    assert len(rows) == 4  # 2 volatilities x {idle, contended}
    assert {r["contended"] for r in rows} == {True, False}


def test_reliable_regime_is_correct(result):
    # Both volatilities here are in the reliable band.
    assert result.metrics["correctness_low_volatility"] == 1.0
    assert result.metrics["n_high"] == 0.0


def test_contended_scores_exceed_idle(result):
    rows = result.tables["sweep"]
    idle = max(r["elasticity"] for r in rows if not r["contended"])
    contended = min(r["elasticity"] for r in rows if r["contended"])
    assert contended > idle

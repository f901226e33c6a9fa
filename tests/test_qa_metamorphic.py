"""Worker-count invariance: the determinism contract the caching and
resume layers depend on.

``Campaign.run`` fans path simulations out over a process pool; the
results must be bit-identical to a serial run (same fingerprints, not
just statistically similar), because the store serves a ``--workers 8``
result to a ``--workers 1`` request and vice versa.
"""

import pytest

from repro.core.campaign import Campaign
from repro.store.fingerprint import fingerprint


@pytest.fixture(scope="module")
def small_campaign_results():
    # duration must exceed the probe's warmup (6 s) + window (5 s) so
    # the detector verdicts being compared are non-vacuous.  Seed 1
    # samples one clean path and one reno-contended path, both at
    # modest rates, so the comparison covers both verdict polarities.
    campaign = Campaign(n_paths=2, seed=1, duration=12.0)
    serial = campaign.run(workers=1, store=None)
    parallel = campaign.run(workers=4, store=None)
    again = campaign.run(workers=1, store=None)
    return serial, parallel, again


def test_workers_do_not_change_fingerprints(small_campaign_results):
    serial, parallel, _ = small_campaign_results
    assert (fingerprint(serial, kind="campaign")
            == fingerprint(parallel, kind="campaign"))


def test_workers_do_not_change_order_or_verdicts(small_campaign_results):
    serial, parallel, _ = small_campaign_results
    assert len(serial.results) == len(parallel.results) == 2
    for a, b in zip(serial.results, parallel.results):
        assert a.spec == b.spec
        assert a.verdict.contending == b.verdict.contending
        assert a.verdict.mean_elasticity == b.verdict.mean_elasticity
        assert a.verdict.n_readings > 0  # non-vacuous comparison


def test_repeat_runs_and_detector_quality_are_identical(
        small_campaign_results):
    serial, parallel, again = small_campaign_results
    assert serial.results == again.results
    assert (serial.detector_quality() == parallel.detector_quality()
            == again.detector_quality())


@pytest.mark.slow
def test_workers_invariance_larger_campaign():
    campaign = Campaign(n_paths=8, seed=11, duration=15.0)
    serial = campaign.run(workers=1, store=None)
    parallel = campaign.run(workers=4, store=None)
    assert (fingerprint(serial, kind="campaign")
            == fingerprint(parallel, kind="campaign"))

"""Golden regression pin for the Fig. 2 detector on a 5k-flow population.

``tests/data/fig2_golden_5k.json`` holds the exact category counts and
detector-quality tallies produced by the committed generator + pipeline
at a fixed seed.  Any change to flow synthesis, filtering, or the
level-shift detector that moves these numbers must update the golden
file *deliberately* (and explain why in the diff).

The file deliberately pins raw numbers rather than store fingerprints:
fingerprints are salted with ``CODE_VERSION`` / ``STORE_SCHEMA_VERSION``
and would spuriously break on every unrelated version bump.
"""

import json
from pathlib import Path

import pytest

from repro.ndt.pipeline import FlowCategory
from repro.ndt.stream import run_pipeline_streaming

GOLDEN_PATH = Path(__file__).parent / "data" / "fig2_golden_5k.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _run(golden, chunk_size):
    return run_pipeline_streaming(
        golden["n_flows"], seed=golden["seed"], chunk_size=chunk_size,
        min_relative_shift=golden["min_relative_shift"],
        workers=1, store=None)


@pytest.fixture(scope="module")
def result(golden):
    """The one-shard run (what the materialized runner computed)."""
    return _run(golden, golden["n_flows"])


@pytest.fixture(scope="module")
def streamed(golden):
    return _run(golden, 1250)


class TestGoldenPopulation:
    def test_category_counts_exact(self, golden, result):
        counts = {cat.value: result.counts.get(cat, 0)
                  for cat in FlowCategory}
        assert counts == golden["counts"]

    def test_level_shift_survivors_exact(self, golden, result):
        assert result.remaining_with_shifts \
            == golden["remaining_with_shifts"]

    def test_detector_quality_exact(self, golden, result):
        assert result.detector_quality() == golden["detector_quality"]

    def test_fractions_exact(self, golden, result):
        assert result.fraction_possible_contention \
            == golden["fraction_possible_contention"]
        assert result.fraction_filtered == golden["fraction_filtered"]

    def test_quality_floor(self, golden):
        """The committed numbers themselves must stay decent: a golden
        update that regresses the detector below these floors needs a
        stronger justification than "the numbers moved"."""
        q = golden["detector_quality"]
        assert q["precision"] >= 0.6
        assert q["recall"] >= 0.95
        assert q["false_negatives"] == 0.0

    def test_streamed_run_matches_golden(self, golden, streamed):
        """A four-shard run must land on the same pinned numbers."""
        counts = {cat.value: streamed.counts.get(cat, 0)
                  for cat in FlowCategory}
        assert counts == golden["counts"]
        assert streamed.detector_quality() == golden["detector_quality"]
        assert streamed.fraction_possible_contention \
            == golden["fraction_possible_contention"]

    def test_sketch_state_exact(self, golden, streamed):
        """The sketch half of ``aggregate_fingerprint``, recorded from
        the materialized runner before it was deleted: per-category
        sample count, exact extrema and every occupied (bin, count)."""
        state = {
            cat.value: {"total": s.total, "vmin": s.vmin, "vmax": s.vmax,
                        "bins": [[i, c] for i, c in enumerate(s.counts)
                                 if c]}
            for cat, s in streamed.sketches.items()}
        assert state == golden["sketches"]

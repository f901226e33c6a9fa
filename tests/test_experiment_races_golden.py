"""Golden pin of the three experiments that race plain flows.

``tests/data/experiment_races_golden.json`` holds, bit for bit
(``float.__repr__``), the ``metrics`` and ``tables`` of short runs of
E3 (``fq_ablation``), E6 (``fairness_matrix``) and E10
(``bwe_isolation``).  It was generated on the commit *before* their
races moved from hand-assembled ``Simulator`` + ``dumbbell`` +
``Connection`` onto ``run_scenario``, so it is the proof that the move
changed no delivered byte; it also pins the stored means across the
interpreter versions CI runs (builtin ``sum()`` over floats is
compensated from Python 3.12 on).

Regenerate (deliberately, explaining why in the diff) with::

    PYTHONPATH=src python -m tests.test_experiment_races_golden
"""

import json
from pathlib import Path

import pytest

from repro.experiments import bwe_isolation, fairness_matrix, fq_ablation

from .test_fluid_golden import _pin

GOLDEN_PATH = Path(__file__).parent / "data" / "experiment_races_golden.json"

RUNS = {
    "fq_ablation": lambda: fq_ablation.run(duration=6.0),
    "fairness_matrix": lambda: fairness_matrix.run(
        duration=5.0, ccas=("reno", "cubic", "bbr")),
    "bwe_isolation": lambda: bwe_isolation.run(duration=8.0),
}


def capture(name: str) -> dict:
    result = RUNS[name]()
    return _pin({"metrics": result.metrics, "tables": result.tables})


@pytest.mark.parametrize("name", sorted(RUNS))
def test_experiment_bit_identical(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert capture(name) == golden[name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: capture(name) for name in sorted(RUNS)},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")

"""Golden pin of the fluid backend's exact outputs.

``tests/data/fluid_golden.json`` holds, bit for bit (``float.__repr__``),
what the fluid backend produced for the perf ledger's 11 campaign path
shapes at 12 s and for a seeded set of fuzzed/mutated scenarios that
covers every qdisc, timing jitter, both CSMA/CA media kinds, late
starts, ECN and 1-6 flows per model.  It was generated on the commit
*before* the tick loop was rewritten from numpy vectors to plain
floats, so it is the proof that the rewrite changed no value; it also
pins the results across the interpreter versions CI runs (builtin
``sum()`` over floats is compensated from Python 3.12 on, which is why
nothing that feeds a fluid result may use it).

The file stores the inputs beside the outputs, so the test does not
depend on the sampler or the ledger staying as they are.  Regenerate
(deliberately, explaining why in the diff) with::

    PYTHONPATH=src python tests/test_fluid_golden.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.core.campaign import PathSpec
from repro.fluid import run_path_fluid, run_scenario_fluid
from repro.qa.scenario import QDISC_NAMES, Scenario

GOLDEN_PATH = Path(__file__).parent / "data" / "fluid_golden.json"
PATH_DURATION = 12.0
N_SCENARIOS = 100
SEED = 15


def _pin(value):
    """JSON-ready copy with every float replaced by its exact repr."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, dict):
        return {key: _pin(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pin(item) for item in value]
    raise TypeError(f"cannot pin {type(value).__name__}: {value!r}")


def capture_path(spec_doc: dict) -> dict:
    result = run_path_fluid(PathSpec(**spec_doc), duration=PATH_DURATION)
    report, verdict = result.report, result.verdict
    return _pin({
        "readings": [[r.time, r.elasticity, r.peak_amplitude,
                      r.background_amplitude, r.mean_cross_rate]
                     for r in report.readings],
        "mean_elasticity": report.mean_elasticity,
        "peak_elasticity": report.peak_elasticity,
        "mean_throughput": report.mean_throughput,
        "verdict": dataclasses.asdict(verdict),
    })


def capture_scenario(scenario_doc: dict) -> dict:
    outcome = run_scenario_fluid(Scenario.from_dict(scenario_doc))
    return _pin({
        "delivered": outcome.delivered,
        "qdisc_stats": outcome.qdisc_stats,
        "ticks": outcome.events_processed,
        "clock": outcome.clock,
        "probe": outcome.probe,
    })


def coverage(scenario_docs: list[dict]) -> set[str]:
    """Which axes of the fluid model a scenario set exercises."""
    seen = set()
    for doc in scenario_docs:
        flows = doc.get("flows", ())
        model_flows = (len(flows) + (doc["family"] == "probe")
                       + (doc.get("cross_traffic", "none") != "none"))
        seen.add(f"flows-{model_flows}")
        seen.add(f"qdisc-{doc['qdisc']}")
        medium = doc.get("medium", "queue")
        if medium.startswith("csma-"):
            seen.add("csma-prio" if medium.endswith("-prio") else "csma")
        if doc.get("timing_jitter", 0.0) > 0.0:
            seen.add("jitter")
        if any(f["start"] > 0.0 for f in flows):
            seen.add("late-start")
        if any(f["ecn"] for f in flows):
            seen.add("ecn")
    return seen


REQUIRED_COVERAGE = (
    {f"qdisc-{name}" for name in QDISC_NAMES}
    | {f"flows-{n}" for n in range(1, 7)}
    | {"csma", "csma-prio", "jitter", "late-start", "ecn"})


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_axis(golden):
    assert len(golden["paths"]) == 11
    assert len(golden["scenarios"]) >= N_SCENARIOS
    docs = [case["scenario"] for case in golden["scenarios"]]
    assert all(doc["backend"] == "fluid" for doc in docs)
    assert REQUIRED_COVERAGE <= coverage(docs)


def test_paths_bit_identical(golden):
    for case in golden["paths"]:
        assert capture_path(case["spec"]) == case["expect"], case["shape"]


def test_scenarios_bit_identical(golden):
    for index, case in enumerate(golden["scenarios"]):
        assert capture_scenario(case["scenario"]) == case["expect"], \
            f"scenario {index}: {case['scenario']}"


def _generate() -> dict:
    """Build the golden document from the code under ``src/``."""
    import numpy as np

    from repro.qa.fuzz import mutate_scenario, sample_scenario

    sys.path.insert(0, str(Path(__file__).parents[1] / "benchmarks"
                           / "ledger"))
    from workloads import FLUID_SHAPES

    paths = []
    for index, shape in enumerate(FLUID_SHAPES):
        name, cross, qdisc, rate, rtt, buf, medium = shape
        spec = {"rate_mbps": rate, "rtt_ms": rtt, "qdisc": qdisc,
                "cross_traffic": cross, "buffer_multiplier": buf,
                "seed": SEED + index, "medium": medium}
        paths.append({"shape": name, "spec": spec,
                      "expect": capture_path(spec)})

    # Half sampled, half mutation chains off the sampled ones; after
    # that only scenarios that add a missing axis are admitted.
    rng = np.random.default_rng(SEED)
    pool = [dataclasses.replace(sample_scenario(i, SEED), backend="fluid")
            for i in range(N_SCENARIOS // 2)]
    chosen = list(pool)
    missing = REQUIRED_COVERAGE - coverage([s.to_dict() for s in chosen])
    while len(chosen) < N_SCENARIOS or missing:
        scenario = pool[int(rng.integers(0, len(pool)))]
        for _ in range(int(rng.integers(1, 4))):
            scenario = mutate_scenario(scenario, rng)
        pool.append(scenario)
        adds = coverage([scenario.to_dict()]) & missing
        if len(chosen) < N_SCENARIOS or adds:
            chosen.append(scenario)
            missing -= adds
    scenarios = [{"scenario": s.to_dict(),
                  "expect": capture_scenario(s.to_dict())} for s in chosen]
    return {"seed": SEED, "path_duration": PATH_DURATION,
            "paths": paths, "scenarios": scenarios}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_generate(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")

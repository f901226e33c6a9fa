"""Golden pin of the packet backend's probe paths and of every
fingerprint a late axis participates in.

``tests/data/path_golden.json`` is the packet-side twin of
``fluid_golden.json``.  It holds, bit for bit (``float.__repr__``):

* what packet ``run_path`` produces for the perf ledger's seven
  ``paths_packet`` shapes at 8 s, and what packet ``run_scenario``
  produces for nine short scenarios that cover both families, all
  eight qdiscs, ``timing_jitter > 0``, ``csma-<n>`` and ``-prio``;
* the literal fingerprints of ``Campaign.path_key``,
  ``Campaign.fingerprint``, ``scenario_fingerprint``, a serve
  ``campaign`` ``JobRequest`` and a cluster ``paths`` task, each with
  the late axes (``backend``, ``medium``, ``timing_jitter``) left at
  their defaults, passed at their defaults, and set.

It was generated on the commit *before* the seven hand-assembled probe
paths were collapsed into one builder per backend and the axis rules
into one declaration, so it is the proof that the refactor moved no
value and no store key.  It was generated on Python 3.11, where builtin
``sum()`` and a left-to-right loop agree; ``ProbeReport.mean_elasticity``
is pinned here so CI's 3.10/3.12 matrix proves the probe no longer
depends on which one the interpreter has.

The file stores the inputs beside the outputs.  Regenerate
(deliberately, explaining why in the diff) with::

    PYTHONPATH=src python tests/test_path_golden.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.cluster.coordinator import task_for
from repro.core.campaign import Campaign, PathSpec, run_path
from repro.qa.scenario import (QDISC_NAMES, Scenario, run_scenario,
                               scenario_fingerprint)
from repro.serve.protocol import JobRequest

GOLDEN_PATH = Path(__file__).parent / "data" / "path_golden.json"
PATH_DURATION = 8.0
SEED = 16


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
    result = run_path(PathSpec(**spec_doc), duration=PATH_DURATION,
                      backend="packet")
    report, verdict = result.report, result.verdict
    return _pin({
        "readings": [[r.time, r.elasticity, r.peak_amplitude,
                      r.background_amplitude, r.mean_cross_rate]
                     for r in report.readings],
        "mean_elasticity": report.mean_elasticity,
        "peak_elasticity": report.peak_elasticity,
        "mean_throughput": report.mean_throughput,
        "duration": report.duration,
        "verdict": dataclasses.asdict(verdict),
    })


def capture_scenario(scenario_doc: dict) -> dict:
    outcome = run_scenario(Scenario.from_dict(scenario_doc))
    return _pin({
        "delivered": outcome.delivered,
        "qdisc_stats": outcome.qdisc_stats,
        "events": outcome.events_processed,
        "clock": outcome.clock,
        "violations": outcome.violations,
        "probe": outcome.probe,
        "fingerprint": outcome.fingerprint(),
    })


#: The late axes at {untouched, default passed explicitly, set}.  A
#: surface skips the variants that name an axis it does not take.
AXIS_VARIANTS = {
    "defaults": {},
    "explicit-defaults": {"backend": "packet", "medium": "queue",
                          "timing_jitter": 0.0},
    "fluid": {"backend": "fluid"},
    "csma-4": {"medium": "csma-4"},
    "jitter": {"timing_jitter": 0.1},
}

_CAMPAIGN = {"n_paths": 3, "seed": 1, "duration": 30.0}
_SCENARIO = {"family": "probe", "rate_mbps": 20.0, "rtt_ms": 20.0,
             "qdisc": "droptail", "duration": 10.0, "seed": 7,
             "cross_traffic": "reno"}


def capture_fingerprints() -> dict:
    out = {}
    for name, axes in AXIS_VARIANTS.items():
        row = {"scenario": scenario_fingerprint(
            Scenario(**_SCENARIO, **axes))}
        campaign_axes = {k: v for k, v in axes.items()
                         if k != "timing_jitter"}
        if campaign_axes or not axes:
            campaign = Campaign(**_CAMPAIGN, **campaign_axes)
            params = {**_CAMPAIGN, **campaign_axes}
            row.update({
                "path_keys": [campaign.path_key(s)
                              for s in campaign.specs],
                "campaign": campaign.fingerprint(),
                "serve_campaign_job": JobRequest(
                    kind="campaign", params=params).fingerprint(),
                "cluster_paths_task": task_for(
                    "paths", {**params, "indices": [0, 2]}).key,
            })
        out[name] = row
    return out


def coverage(scenario_docs: list[dict]) -> set[str]:
    seen = set()
    for doc in scenario_docs:
        seen.add(f"family-{doc['family']}")
        seen.add(f"qdisc-{doc['qdisc']}")
        medium = doc.get("medium", "queue")
        if medium.startswith("csma-"):
            seen.add("csma-prio" if medium.endswith("-prio") else "csma")
        if doc.get("timing_jitter", 0.0) > 0.0:
            seen.add("jitter")
        if any(f["start"] > 0.0 for f in doc.get("flows", ())):
            seen.add("late-start")
        if any(f["ecn"] for f in doc.get("flows", ())):
            seen.add("ecn")
    return seen


REQUIRED_COVERAGE = (
    {f"qdisc-{name}" for name in QDISC_NAMES}
    | {"family-probe", "family-flows", "csma", "csma-prio", "jitter",
       "late-start", "ecn"})


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_axis(golden):
    assert len(golden["paths"]) == 7
    docs = [case["scenario"] for case in golden["scenarios"]]
    assert all(doc.get("backend", "packet") == "packet" for doc in docs)
    assert REQUIRED_COVERAGE <= coverage(docs)
    assert set(golden["fingerprints"]) == set(AXIS_VARIANTS)


def test_paths_bit_identical(golden):
    for case in golden["paths"]:
        assert capture_path(case["spec"]) == case["expect"], case["shape"]


def test_scenarios_bit_identical(golden):
    for index, case in enumerate(golden["scenarios"]):
        assert capture_scenario(case["scenario"]) == case["expect"], \
            f"scenario {index}: {case['scenario']}"


def test_fingerprints_literal(golden):
    assert capture_fingerprints() == golden["fingerprints"]


def test_default_axes_do_not_move_store_keys(golden):
    """Passing an axis at its default addresses the same store objects
    as not passing it (serve/cluster request keys hash the raw params
    document and are pinned above as they are)."""
    plain = golden["fingerprints"]["defaults"]
    explicit = golden["fingerprints"]["explicit-defaults"]
    for surface in ("scenario", "path_keys", "campaign"):
        assert plain[surface] == explicit[surface], surface
    for variant in ("fluid", "csma-4"):
        assert golden["fingerprints"][variant]["campaign"] \
            != plain["campaign"]


def _flow(cca, **kwargs) -> dict:
    return {"cca": cca, "rate_frac": 0.3, "user_id": "", "start": 0.0,
            "ecn": False, **kwargs}


def _scenario_inputs() -> list[dict]:
    """Nine short scenarios: both families, every qdisc, jitter, both
    CSMA/CA kinds, a late start, ECN."""
    probe = {"family": "probe", "rate_mbps": 10.0, "rtt_ms": 20.0,
             "duration": 8.0, "buffer_multiplier": 1.0, "flows": []}
    flows = {"family": "flows", "rate_mbps": 10.0, "rtt_ms": 30.0,
             "duration": 4.0, "buffer_multiplier": 1.0,
             "cross_traffic": "none"}
    return [
        {**probe, "qdisc": "droptail", "seed": SEED,
         "cross_traffic": "reno"},
        {**probe, "qdisc": "fq", "seed": SEED + 1,
         "cross_traffic": "bbr", "timing_jitter": 0.1},
        {**probe, "qdisc": "droptail", "seed": SEED + 2,
         "cross_traffic": "poisson", "medium": "csma-3"},
        {**flows, "qdisc": "red", "seed": SEED + 3,
         "flows": [_flow("reno"), _flow("cubic")],
         "cross_traffic": "poisson"},
        {**flows, "qdisc": "codel", "seed": SEED + 4,
         "buffer_multiplier": 2.0,
         "flows": [_flow("bbr"), _flow("cbr", start=1.0),
                   _flow("dctcp", ecn=True)]},
        {**flows, "qdisc": "sfq", "seed": SEED + 5,
         "flows": [_flow("vegas"), _flow("ledbat")],
         "timing_jitter": 0.2, "medium": "csma-4-prio"},
        {**flows, "qdisc": "htb", "seed": SEED + 6,
         "flows": [_flow("newreno", user_id="a"),
                   _flow("copa", user_id="b")],
         "cross_traffic": "video"},
        {**flows, "qdisc": "tbf", "seed": SEED + 7,
         "flows": [_flow("cubic")], "cross_traffic": "cbr"},
        {**flows, "qdisc": "policer", "seed": SEED + 8,
         "buffer_multiplier": 0.5,
         "flows": [_flow("reno"), _flow("bbr")]},
    ]


def _generate() -> dict:
    """Build the golden document from the code under ``src/``."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "benchmarks"
                           / "ledger"))
    from workloads import PACKET_SHAPES

    paths = []
    for index, shape in enumerate(PACKET_SHAPES):
        name, cross, qdisc, rate, rtt, buf, medium = shape
        spec = {"rate_mbps": rate, "rtt_ms": rtt, "qdisc": qdisc,
                "cross_traffic": cross, "buffer_multiplier": buf,
                "seed": SEED + index, "medium": medium}
        paths.append({"shape": name, "spec": spec,
                      "expect": capture_path(spec)})
    scenarios = []
    for doc in _scenario_inputs():
        # Stored in canonical to_dict form, like the corpus.
        doc = Scenario.from_dict(doc).to_dict()
        scenarios.append({"scenario": doc,
                          "expect": capture_scenario(doc)})
    return {"seed": SEED, "path_duration": PATH_DURATION,
            "python": sys.version.split()[0],
            "paths": paths, "scenarios": scenarios,
            "axis_variants": AXIS_VARIANTS,
            "campaign": _CAMPAIGN, "scenario": _SCENARIO,
            "fingerprints": capture_fingerprints()}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_generate(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")

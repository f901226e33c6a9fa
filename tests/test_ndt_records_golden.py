"""Golden pin of every synthetic NDT record and every PELT decision.

``fig2_golden_5k.json`` pins category counts, quality tallies and
sketch bins; a snapshot field off by one unit in the last place, or a
breakpoint that moved by one index on a flow the relative-shift filter
then dropped anyway, would pass it.  This file pins, for three seeds of
1,200 flows each:

* the SHA-256 over every record's ``to_json()`` in index order -- so
  every snapshot field of every access type and behaviour class
  (cellular/satellite wobble included) is held to the last bit;
* for every ``REMAINING`` flow, ``[index, penalty.hex(), raw PELT
  breakpoints, breakpoints kept by the relative-shift filter]`` (the
  raw ones are the detector's search at a relative-shift floor of 0,
  which keeps every breakpoint it finds);

and, for a 3,000-flow run in 500-flow shards, the
``aggregate_fingerprint()`` and the store key of the run (a store
written before a rewrite must be *hit* by the code after it, so the
key may not move either).

It was generated on the commit *before* ``ndt.synth._render`` was
rewritten to compute snapshot fields by column and PELT became one
batched kernel, so it is the proof that both emit what the per-element
code did.  It was regenerated once when PELT's pruning was deleted for
the exact search: the raw breakpoints of seed 1 flow 816 and seed
20230 flow 401 moved to the optimum, and nothing else did.  It passed
byte-unchanged across the rewrite that made a record hold its snapshots
as field columns instead of row objects, and was not regenerated for
it, nor when a shard came to be rendered and filtered as one
``(flows, snapshots)`` array.  Regenerate
(deliberately, explaining why in the diff) with::

    PYTHONPATH=src python tests/test_ndt_records_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis import throughput_level_shift
from repro.ndt import FlowCategory, SyntheticNdtGenerator, categorize
from repro.ndt.schema import throughput_rows
from repro.ndt.stream import (run_pipeline_streaming, shard_specs,
                              stream_run_key)

GOLDEN_PATH = Path(__file__).parent / "data" / "ndt_records_golden.json"

SEEDS = (1, 20230, 987654321)
N_FLOWS = 1200
MIN_RELATIVE_SHIFT = 0.25
STREAM = {"n_flows": 3000, "seed": 7, "chunk_size": 500}


def capture_seed(seed: int) -> dict:
    records = SyntheticNdtGenerator(seed=seed).generate(N_FLOWS).records
    digest = hashlib.sha256()
    covered = set()
    remaining = []
    for index, record in enumerate(records):
        digest.update(record.to_json().encode())
        covered.add(f"{record.access_type}/{record.true_class}")
        if categorize(record) is not FlowCategory.REMAINING:
            continue
        series = throughput_rows([record])[0]
        raw = throughput_level_shift(series, min_relative_shift=0.0)
        kept = throughput_level_shift(
            series, min_relative_shift=MIN_RELATIVE_SHIFT)
        remaining.append([index, float(raw.penalty).hex(),
                          list(raw.breakpoints), list(kept.breakpoints)])
    return {"sha256": digest.hexdigest(), "covered": sorted(covered),
            "remaining": remaining}


def capture_stream() -> dict:
    result = run_pipeline_streaming(workers=1, store=None, **STREAM)
    return {"aggregate_fingerprint": result.aggregate_fingerprint(),
            "run_key": stream_run_key(shard_specs(**STREAM))}


def capture() -> dict:
    return {"seeds": {str(seed): capture_seed(seed) for seed in SEEDS},
            "stream": capture_stream()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_records_and_pelt_decisions_identical(golden, seed):
    assert capture_seed(seed) == golden["seeds"][str(seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_detector_reproduces_per_flow_rows(golden, seed):
    """The shard path: every pinned flow of a seed as one ``(flows, n)``
    call, rows with different breakpoints beside each other."""
    pinned = golden["seeds"][str(seed)]["remaining"]
    generator = SyntheticNdtGenerator(seed=seed)
    series = throughput_rows([generator.generate_shard(row[0], 1).records[0]
                              for row in pinned])
    raw = throughput_level_shift(series, min_relative_shift=0.0)
    kept = throughput_level_shift(series,
                                  min_relative_shift=MIN_RELATIVE_SHIFT)
    assert [[row[0], r.penalty.hex(), list(r.breakpoints),
             list(k.breakpoints)]
            for row, r, k in zip(pinned, raw, kept)] == pinned


def test_stream_aggregate_and_store_key_identical(golden):
    assert capture_stream() == golden["stream"]


def test_golden_reaches_what_it_is_for(golden):
    # A golden with no wobbling flow, or no flow whose raw breakpoints
    # the filter thinned, would prove nothing about either.
    for pinned in golden["seeds"].values():
        access = {pair.split("/")[0] for pair in pinned["covered"]}
        classes = {pair.split("/")[1] for pair in pinned["covered"]}
        assert access == {"cable", "fiber", "dsl", "wifi", "cellular",
                          "satellite"}
        assert classes == {"app_limited", "rwnd_limited", "bulk_clean",
                           "bulk_contended", "policed"}
        rows = pinned["remaining"]
        assert len(rows) >= 250
        assert any(raw and not kept for _i, _p, raw, kept in rows)
        assert any(len(kept) >= 2 for _i, _p, _raw, kept in rows)
        assert any(not raw for _i, _p, raw, _kept in rows)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=None,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)

"""Golden pin of what a well-formed serve request means.

``tests/data/serve_request_golden.json`` holds one well-formed request
per job kind (all nine of ``repro.serve.jobs.EXECUTORS``) with its
``JobRequest.fingerprint()`` and the keys of the summary its executor
returned, plus the ``Campaign.path_key`` of every path the ``paths``
shard ran.  It was generated on the commit *before* the executors'
param handling moved into their signatures, so it is the proof that
the move changed neither the identity of a request (its cache key) nor
the campaign a shard rebuilds from its params (the store keys a
cluster coordinator pulls by) nor the shape of any answer.

Every request goes through ``JobManager.submit`` -- the one door both
commits share -- never through an executor call.  Regenerate
(deliberately, explaining why in the diff) with::

    PYTHONPATH=src python tests/test_serve_golden.py
"""

import asyncio
import json
import sys
import tempfile
from pathlib import Path

from repro.core.campaign import Campaign
from repro.serve.jobs import EXECUTORS, JobManager
from repro.serve.protocol import JobRequest, JobState
from repro.store import ArtifactStore

GOLDEN_PATH = Path(__file__).parent / "data" / "serve_request_golden.json"

_SCENARIO = {"family": "flows", "rate_mbps": 8.0, "rtt_ms": 20.0,
             "qdisc": "droptail", "duration": 2.0, "seed": 42,
             "flows": [{"cca": "reno"}]}

#: One request per kind; ``workers`` rides along once to pin that it is
#: accepted and stays out of the fingerprint, and the shard's integer
#: ``duration`` pins that a whole number of seconds names the same
#: campaign as its float.
REQUESTS = {
    "campaign": {"n_paths": 1, "seed": 3, "duration": 1.0,
                 "backend": "fluid", "fq_fraction": 0.0, "workers": 1},
    "paths": {"n_paths": 3, "seed": 3, "duration": 1,
              "backend": "fluid", "indices": [0, 2]},
    "pipeline": {"flows": 200, "seed": 1, "chunk_size": 100},
    "fig2-shard": {"seed": 1, "start": 100, "count": 100},
    "experiment": {"experiment": "fig2", "smoke": True,
                   "params": {"n_flows": 200}},
    "sweep": {"experiment": "fig2", "param": "n_flows",
              "values": [100, 150], "base": {"seed": 1}},
    "qa-search": {"budget": 4, "seed": 0},
    "qa-eval": {"scenario": _SCENARIO},
    "qa-envelope": {"budget": 4, "seed": 0},
}


def capture(store_root) -> dict:
    """Run every request through one manager; the golden document."""
    manager = JobManager(store=ArtifactStore(store_root), concurrency=1,
                         job_workers=1)

    async def scenario():
        await manager.start()
        jobs = {kind: manager.submit(JobRequest(kind, params))[0]
                for kind, params in REQUESTS.items()}
        while not all(job.terminal for job in jobs.values()):
            await asyncio.sleep(0.02)
        await manager.drain(grace_s=5.0)
        return jobs

    jobs = asyncio.run(asyncio.wait_for(scenario(), 300.0))
    for kind, job in jobs.items():
        assert job.state == JobState.DONE, (kind, job.error)
    return {
        "requests": {kind: {
            "params": REQUESTS[kind],
            "fingerprint": JobRequest(kind, REQUESTS[kind]).fingerprint(),
            "summary_keys": sorted(job.summary)}
            for kind, job in jobs.items()},
        "paths_shard_path_keys": jobs["paths"].summary["path_keys"],
    }


def test_one_request_per_kind():
    assert sorted(REQUESTS) == sorted(EXECUTORS)


def test_requests_match_golden(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert capture(tmp_path / "store") == golden


def test_workers_param_is_not_semantic():
    params = dict(REQUESTS["campaign"])
    with_workers = JobRequest("campaign", params).fingerprint()
    del params["workers"]
    assert JobRequest("campaign", params).fingerprint() == with_workers


def test_paths_shard_keys_are_the_campaigns():
    """What a coordinator computes locally is what the shard stored."""
    golden = json.loads(GOLDEN_PATH.read_text())
    params = {**REQUESTS["paths"], "duration": 1.0}
    indices = params.pop("indices")
    campaign = Campaign(**params)
    assert [campaign.path_key(campaign.specs[i]) for i in indices] \
        == golden["paths_shard_path_keys"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        document = capture(root)
    GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)

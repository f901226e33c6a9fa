"""End-to-end HTTP tests against a live :class:`ServerThread`.

Covers the acceptance criteria of the serve subsystem:

* a campaign submitted over HTTP produces a result whose fingerprint
  and stored payload are identical to a direct :meth:`Campaign.run`;
* two concurrent identical submissions execute once and both receive
  the result;
* a server killed mid-job resumes the job from its store checkpoint
  on restart;
* queue-full and rate-limited requests get 429 + Retry-After;
* ``/metrics`` reflects admit/coalesce/reject counts.
"""

import pickle
import threading

import pytest

from repro.serve import jobs as jobs_mod
from repro.serve import (ClientRateLimiter, JobManager, ServeClient,
                         ServeError, ServerThread)
from repro.store import ArtifactStore

from .helpers import submit_and_wait

#: Fast-but-real campaign config (~1s of simulated paths).
CAMPAIGN_PARAMS = {"n_paths": 2, "seed": 3, "duration": 1.0}


@pytest.fixture(autouse=True)
def _fresh_metrics():
    """The obs registry is process-global; serve counters must start
    at zero for each test's assertions."""
    from repro.obs.metrics import REGISTRY
    REGISTRY.reset()
    yield
    REGISTRY.reset()


def open_limiter():
    """A limiter that never rejects (tests that target the queue)."""
    return ClientRateLimiter(rate=1000.0, burst=1000.0)


@pytest.fixture
def block(monkeypatch):
    release = threading.Event()
    started = threading.Event()

    def execute_block(store, workers, **params):
        started.set()
        if not release.wait(timeout=30.0):
            raise TimeoutError("block executor never released")
        return {"blocked": params.get("tag", "")}, params

    monkeypatch.setitem(jobs_mod.EXECUTORS, "block", execute_block)
    yield type("Block", (), {"release": release, "started": started})
    release.set()


class TestEndToEnd:
    def test_campaign_matches_direct_run(self):
        """HTTP result == direct Campaign.run, byte for byte."""
        from repro.core.campaign import Campaign
        from repro.store import fingerprint

        store = ArtifactStore()
        with ServerThread(store=store, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="e2e")
            result = submit_and_wait(client, "campaign", CAMPAIGN_PARAMS,
                                     timeout=120)
            assert result["state"] == "done"
            served = store.get(result["key"])

        direct = Campaign(**CAMPAIGN_PARAMS).run(store=None)
        outcome = [{"contending": r.verdict.contending,
                    "category": r.verdict.category,
                    "mean_elasticity": r.verdict.mean_elasticity}
                   for r in direct.results]
        assert result["summary"]["result_fingerprint"] == \
            fingerprint(outcome, kind="campaign-outcome")
        assert result["summary"]["fraction_contending"] == \
            direct.fraction_contending
        # the stored payload is the same object a direct run produces
        assert pickle.dumps(served["payload"].results) == \
            pickle.dumps(direct.results)

    def test_concurrent_identical_submissions_execute_once(self, block):
        with ServerThread(store=None, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="race")
            results, errors = [], []

            def submit():
                try:
                    results.append(client.submit("block", {"tag": "x"}))
                except Exception as exc:  # surface in the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            assert len({r["id"] for r in results}) == 1, \
                "identical submissions must coalesce onto one job"
            block.release.set()
            done = client.wait(results[0]["id"], timeout=30)
            assert done["summary"] == {"blocked": "x"}
            assert done["waiters"] == 4
            metrics = client.metrics()
            assert metrics["serve.jobs_admitted"]["value"] == 1
            assert metrics["serve.jobs_coalesced"]["value"] == 3
            assert metrics["serve.jobs_executed"]["value"] == 1

    def test_resubmit_after_restart_is_a_cache_hit(self):
        store = ArtifactStore()
        with ServerThread(store=store, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="warm")
            first = submit_and_wait(client, "pipeline", {"flows": 200},
                                    timeout=60)
        # a *new* server over the same store answers without executing
        with ServerThread(store=store, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="warm")
            second = client.submit("pipeline", {"flows": 200})
            assert second["disposition"] == "cached"
            assert second["summary"] == first["summary"]
            assert server.manager._metrics is not None
            assert client.metrics()["serve.jobs_cached"]["value"] >= 1

    def test_kill_mid_job_resumes_on_restart(self, block):
        """A dirty shutdown leaves the journal; the next server start
        re-admits the job and runs it to completion."""
        store = ArtifactStore()
        request_params = {"tag": "orphan"}
        thread = ServerThread(store=store, concurrency=1,
                              limiter=open_limiter())
        # A 0.1 s drain, not 10 s: the blocked job never finishes in it.
        thread.drain_grace_s = 0.1
        with thread as server:
            client = ServeClient(port=server.port, client_id="kill")
            job = client.submit("block", request_params)
            assert block.started.wait(timeout=10)
            key = job["key"]
            # stop() with a tiny grace = SIGTERM with work in flight
        assert server.server.drain_clean is False
        journal = store.root / "serve" / "journal" / f"{key}.json"
        assert journal.exists(), "unfinished job must stay journaled"

        block.release.set()
        with ServerThread(store=store, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="kill")
            jobs = client.jobs()
            assert [j["key"] for j in jobs] == [key]
            done = client.wait(jobs[0]["id"], timeout=30)
            assert done["summary"] == {"blocked": "orphan"}
            assert client.metrics()["serve.jobs_resumed"]["value"] == 1
        assert not journal.exists()


class TestBackpressure:
    def test_queue_full_gets_429_with_retry_after(self, block):
        with ServerThread(store=None, queue_depth=1, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="flood")
            client.submit("block", {"tag": "running"})
            assert block.started.wait(timeout=10)
            client.submit("block", {"tag": "queued"})
            with pytest.raises(ServeError) as exc:
                client.submit("block", {"tag": "overflow"})
            assert exc.value.status == 429
            assert exc.value.retry_after_s >= 1
            metrics = client.metrics()
            assert metrics["serve.jobs_rejected_full"]["value"] == 1
            block.release.set()

    def test_rate_limited_gets_429_with_retry_after(self):
        limiter = ClientRateLimiter(rate=1.0, burst=2.0)
        with ServerThread(store=None, limiter=limiter) as server:
            client = ServeClient(port=server.port, client_id="greedy")
            client.healthz()  # not rate limited: only POST /jobs is
            client.submit("pipeline", {"flows": 200})
            client.submit("pipeline", {"flows": 201})
            with pytest.raises(ServeError) as exc:
                client.submit("pipeline", {"flows": 202})
            assert exc.value.status == 429
            assert exc.value.retry_after_s >= 1
            # other clients are unaffected
            other = ServeClient(port=server.port, client_id="patient")
            other.submit("pipeline", {"flows": 203})
            metrics = client.metrics()
            assert metrics["serve.jobs_rejected_rate"]["value"] == 1

    def test_draining_refuses_with_503(self, block):
        with ServerThread(store=None, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="late")
            client.submit("block", {"tag": "inflight"})
            assert block.started.wait(timeout=10)
            client.drain()
            with pytest.raises(ServeError) as exc:
                client.submit("pipeline", {"flows": 200})
            assert exc.value.status == 503
            assert client.healthz()["status"] == "draining"
            block.release.set()
        assert server.server.drain_clean is True


class TestHttpSurface:
    def test_service_document_and_health(self):
        with ServerThread(store=None) as server:
            client = ServeClient(port=server.port)
            doc = client._request("GET", "/")
            assert doc["service"] == "repro-serve"
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["queued"] == 0 and health["running"] == 0

    def test_unknown_routes_and_jobs(self):
        with ServerThread(store=None) as server:
            client = ServeClient(port=server.port)
            with pytest.raises(ServeError) as exc:
                client._request("GET", "/nope")
            assert exc.value.status == 404
            with pytest.raises(ServeError) as exc:
                client.status("job-000000-missing")
            assert exc.value.status == 404

    def test_bad_submissions_get_400(self):
        with ServerThread(store=None, limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="bad")
            for body in ({"params": {}},           # no kind
                         {"kind": "nope"},         # unknown kind
                         {"kind": "pipeline", "extra": 1},
                         {"kind": "pipeline", "params": [200]},
                         # params the kind's executor does not declare,
                         # of the wrong type, or out of range
                         {"kind": "campaign", "params": {"n_path": 3}},
                         {"kind": "campaign",
                          "params": {"n_paths": "three"}},
                         {"kind": "campaign", "params": {"n_paths": 0}},
                         {"kind": "paths",
                          "params": {"n_paths": 3, "indices": [3]}},
                         {"kind": "qa-eval",
                          "params": {"scenario": "reno"}}):
                with pytest.raises(ServeError) as exc:
                    client._request("POST", "/jobs", body)
                assert exc.value.status == 400
            assert client.healthz()["jobs"] == 0
            assert "serve.jobs_admitted" not in client.metrics()

    def test_result_409_until_done_then_200(self, block):
        with ServerThread(store=None, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="poll")
            job = client.submit("block", {"tag": "slow"})
            assert block.started.wait(timeout=10)
            with pytest.raises(ServeError) as exc:
                client.result(job["id"])
            assert exc.value.status == 409
            assert exc.value.retry_after_s is not None
            block.release.set()
            client.wait(job["id"], timeout=30)
            assert client.result(job["id"])["summary"] == \
                {"blocked": "slow"}

    def test_cancel_queued_job(self, block):
        with ServerThread(store=None, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="cancel")
            client.submit("block", {"tag": "running"})
            assert block.started.wait(timeout=10)
            queued = client.submit("block", {"tag": "victim"})
            cancelled = client.cancel(queued["id"])
            assert cancelled["state"] == "cancelled"
            with pytest.raises(ServeError) as exc:
                client.cancel(queued["id"])  # already terminal
            assert exc.value.status == 409
            block.release.set()

    def test_event_stream_reaches_terminal_state(self):
        with ServerThread(store=None, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="events")
            job = client.submit("pipeline", {"flows": 200})
            events = list(client.events(job["id"]))
            assert events, "stream must yield at least one document"
            versions = [e["version"] for e in events]
            assert versions == sorted(versions)
            assert events[-1]["state"] == "done"
            assert events[-1]["summary"]["total"] == 200


class TestStoreFetch:
    """``GET /store/<key>``: the cluster-merge transfer endpoint."""

    def test_fetch_returns_exact_object_bytes(self):
        from repro.store.fingerprint import fingerprint

        store = ArtifactStore()
        payload = {"tag": "transfer", "values": list(range(8))}
        key = fingerprint(payload, kind="fetch-test")
        data = pickle.dumps(payload, protocol=4)
        store.put_bytes(key, data, kind="fetch-test")
        with ServerThread(store=store, limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="fetch")
            assert client.fetch_store(key) == data
            metrics = client.metrics()
            assert metrics["serve.store_fetches"]["value"] == 1
            assert metrics["serve.store_fetch_bytes"]["value"] == \
                len(data)

    def test_missing_key_404_and_malformed_key_400(self):
        with ServerThread(store=ArtifactStore(),
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="fetch")
            with pytest.raises(ServeError) as exc:
                client.fetch_store("ab" * 32)  # valid hex, absent
            assert exc.value.status == 404
            with pytest.raises(ServeError) as exc:
                client.fetch_store("nothex!key")
            assert exc.value.status == 400

    def test_storeless_server_refuses_with_503(self):
        with ServerThread(store=None, limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="fetch")
            with pytest.raises(ServeError) as exc:
                client.fetch_store("ab" * 32)
            assert exc.value.status == 503


class TestClientTimeouts:
    def test_connect_timeout_fails_fast_with_status_0(self):
        """A coordinator's dispatch to an unreachable node must fail in
        ``connect_timeout`` seconds, not the 30s read/job timeout."""
        import time

        # RFC 5737 TEST-NET-1: guaranteed unroutable, so connect hangs
        # until the timeout instead of being refused instantly.
        client = ServeClient("192.0.2.1", 9, timeout=30.0,
                             connect_timeout=0.3)
        start = time.monotonic()
        with pytest.raises(ServeError) as exc:
            client.healthz()
        assert time.monotonic() - start < 5.0
        assert exc.value.status == 0

    def test_connect_timeout_defaults_to_read_timeout(self):
        assert ServeClient(timeout=7.0).connect_timeout == 7.0
        assert ServeClient(timeout=7.0,
                           connect_timeout=0.5).connect_timeout == 0.5


class TestPerKindCounters:
    def test_admitted_and_done_counted_by_kind(self):
        with ServerThread(store=None, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="kinds")
            submit_and_wait(client, "pipeline", {"flows": 200},
                            timeout=60)
            metrics = client.metrics()
            assert metrics["serve.kind.pipeline.admitted"]["value"] == 1
            assert metrics["serve.kind.pipeline.done"]["value"] == 1

"""End-to-end HTTP tests against a live :class:`ServerThread`.

Covers the acceptance criteria of the serve subsystem:

* a campaign submitted over HTTP produces a result whose fingerprint
  and stored payload are identical to a direct :meth:`Campaign.run`;
* two concurrent identical submissions execute once and both receive
  the result;
* a server killed mid-job resumes the job from its store checkpoint
  on restart;
* queue-full and rate-limited requests get 429 + Retry-After;
* ``/metrics`` reflects admit/coalesce/reject counts;
* connections persist: one client reuses one connection, ``Connection:
  close``, HTTP/1.0, a malformed request and an event stream each end
  theirs, a stale one is replayed once, and a stop closes idle ones.
"""

import json
import pickle
import socket
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


@pytest.fixture
def connects(monkeypatch):
    """Every connection a :class:`ServeClient` opens, in order."""
    opened = []
    real = ServeClient._connect

    def counting(self):
        conn = real(self)
        opened.append(conn)
        return conn

    monkeypatch.setattr(ServeClient, "_connect", counting)
    return opened


def _raw_connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    return sock, sock.makefile("rb")


def _read_response(stream):
    """``(status line, headers, body)`` of one response with a
    ``Content-Length``, read off a raw socket's file."""
    status = stream.readline()
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, stream.read(int(headers["content-length"]))


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

    def test_concurrent_identical_submissions_execute_once(self, block,
                                                           connects):
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
            assert len(connects) <= 4  # one per thread at most
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


class TestKeepAlive:
    """The wire contract of persistent connections, over a raw socket."""

    def test_two_requests_on_one_socket(self):
        with ServerThread(store=None) as server:
            sock, stream = _raw_connect(server.port)
            with sock, stream:
                for path in (b"/healthz", b"/nope"):
                    sock.sendall(b"GET " + path + b" HTTP/1.1\r\n"
                                 b"Host: x\r\n\r\n")
                    status, headers, body = _read_response(stream)
                    assert headers["connection"] == "keep-alive"
                    assert json.loads(body)
                    assert status.split()[1] == (
                        b"200" if path == b"/healthz" else b"404")

    @pytest.mark.parametrize("request_head", [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http-1.0"])
    def test_close_is_answered_with_close_then_eof(self, request_head):
        with ServerThread(store=None) as server:
            sock, stream = _raw_connect(server.port)
            with sock, stream:
                sock.sendall(request_head)
                status, headers, body = _read_response(stream)
                assert status.split()[1] == b"200"
                assert headers["connection"] == "close"
                assert json.loads(body)["status"] == "ok"
                assert stream.read() == b""

    def test_malformed_request_gets_400_then_eof(self):
        with ServerThread(store=None) as server:
            sock, stream = _raw_connect(server.port)
            with sock, stream:
                sock.sendall(b"NONSENSE\r\n\r\nGET /healthz HTTP/1.1"
                             b"\r\n\r\n")
                status, headers, _body = _read_response(stream)
                assert status.split()[1] == b"400"
                assert headers["connection"] == "close"
                assert stream.read() == b""

    @pytest.mark.parametrize("request_head, reason", [
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
         "request line too long"),
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000
         + b"\r\n\r\n", "header line too long"),
    ], ids=["request-line", "header-line"])
    def test_line_past_the_stream_limit_gets_400_then_eof(
            self, request_head, reason, caplog):
        """A line longer than asyncio's 64 KiB stream limit is a 400
        like any other line the server cannot parse, not a dead
        handler; the server goes on serving."""
        import logging

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with ServerThread(store=None) as server:
                sock, stream = _raw_connect(server.port)
                with sock, stream:
                    sock.sendall(request_head)
                    status, headers, body = _read_response(stream)
                    assert status.split()[1] == b"400"
                    assert headers["connection"] == "close"
                    assert json.loads(body)["error"] == reason
                    assert stream.read() == b""
                sock, stream = _raw_connect(server.port)
                with sock, stream:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                    status, _headers, body = _read_response(stream)
                    assert status.split()[1] == b"200"
                    assert json.loads(body)["status"] == "ok"
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_event_stream_ends_its_connection(self, block):
        with ServerThread(store=None, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="stream")
            job = client.submit("block", {"tag": "stream"})
            block.release.set()
            client.wait(job["id"], timeout=30)
            sock, stream = _raw_connect(server.port)
            with sock, stream:
                sock.sendall(f"GET /jobs/{job['id']}/events HTTP/1.1"
                             f"\r\n\r\n".encode())
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    head += stream.readline()
                assert b"Transfer-Encoding: chunked" in head
                assert b"Connection: close" in head
                rest = stream.read()  # returns at EOF only
                assert rest.endswith(b"\r\n0\r\n\r\n")
                assert b'"state": "done"' in rest

    def test_one_client_reuses_one_connection(self, block, connects):
        with ServerThread(store=None, concurrency=1,
                          limiter=open_limiter()) as server:
            client = ServeClient(port=server.port, client_id="reuse")
            ids = {client.submit("block", {"tag": "same"})["id"]
                   for _ in range(50)}
            assert len(ids) == 1
            assert len(connects) == 1
            assert client.metrics()["serve.jobs_coalesced"]["value"] == 49
            block.release.set()

    def test_threads_sharing_a_client_never_share_a_connection(
            self, connects):
        """Eight threads, 25 requests each, a 10 us switch interval: a
        connection two threads took at once would fail a request
        (``CannotSendRequest``/``ResponseNotReady``) or cross two
        responses."""
        import sys

        with ServerThread(store=None) as server:
            client = ServeClient(port=server.port)
            errors = []

            def hammer(worker):
                try:
                    for i in range(25):
                        path = f"/jobs/job-{worker}-{i}"
                        with pytest.raises(ServeError) as exc:
                            client._request("GET", path)
                        assert exc.value.status == 404
                        assert exc.value.payload["error"].endswith(
                            f"job-{worker}-{i}")
                except BaseException as exc:  # surface in the test
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=hammer, args=(w,))
                           for w in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert len(connects) <= 8
            client.close()

    def test_stale_connection_is_replayed_once(self, connects):
        """A server restart on the same port closes the client's idle
        connection; the next request replays on a new one."""
        store = ArtifactStore()
        with ServerThread(store=store, limiter=open_limiter()) as server:
            port = server.port
            client = ServeClient(port=port, client_id="restart")
            first = submit_and_wait(client, "pipeline", {"flows": 200},
                                    timeout=60)
        reused = client._idle[-1]
        with ServerThread(store=store, port=port,
                          limiter=open_limiter()):
            again = client.submit("pipeline", {"flows": 200})
            assert again["disposition"] == "cached"
            assert again["summary"] == first["summary"]
            assert reused not in client._idle
            assert len(connects) == 2
        with pytest.raises(ServeError) as exc:
            client.healthz()
        assert exc.value.status == 0

    def test_stop_closes_idle_connections_quietly(self, caplog):
        import logging
        import time

        server = ServerThread(store=None).start()
        client = ServeClient(port=server.port)
        client.healthz()  # leaves one idle pooled connection
        sock, stream = _raw_connect(server.port)
        with sock, stream:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            _read_response(stream)
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                start = time.monotonic()
                assert server.stop() is True
                assert time.monotonic() - start < 5.0
            assert stream.read() == b"", \
                "the server must close a connection idle at stop"
        assert not [r for r in caplog.records if r.name == "asyncio"]
        client.close()
        assert client._idle == []

    def test_stop_ends_streams_and_cuts_off_stalled_clients(self, block,
                                                           caplog):
        """A drain that gives up on a job still ends that job's event
        stream cleanly, and a client stalled mid-request is cut off
        after the grace instead of holding the stop up."""
        import logging
        import time

        server = ServerThread(store=None, concurrency=1,
                              limiter=open_limiter())
        server.drain_grace_s = 0.2
        server.start()
        job = ServeClient(port=server.port).submit("block",
                                                   {"tag": "stuck"})
        assert block.started.wait(timeout=10)
        events, events_stream = _raw_connect(server.port)
        stalled, stalled_stream = _raw_connect(server.port)
        with events, events_stream, stalled, stalled_stream:
            events.sendall(f"GET /jobs/{job['id']}/events HTTP/1.1\r\n"
                           f"\r\n".encode())
            while events_stream.readline() != b"\r\n":
                pass  # the stream's head: the server is streaming
            stalled.sendall(b"GET /healthz HTTP/1.1\r\n")  # no end
            time.sleep(0.2)
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                start = time.monotonic()
                assert server.stop() is False
                assert time.monotonic() - start < 5.0
            rest = events_stream.read()
            assert rest.endswith(b"\r\n0\r\n\r\n")
            assert b'"state": "running"' in rest
            assert stalled_stream.read() == b""
        assert not [r for r in caplog.records if r.name == "asyncio"]
        block.release.set()


class TestClientLifetime:
    def test_context_manager_closes_idle_connections(self):
        with ServerThread(store=None) as server:
            with ServeClient(port=server.port) as client:
                client.healthz()
                sock = client._idle[-1].sock
            assert client._idle == [] and sock.fileno() == -1
            assert client.healthz()["status"] == "ok"  # reopens
            client.close()

    def test_dropped_client_closes_its_connections(self):
        import gc

        with ServerThread(store=None) as server:
            client = ServeClient(port=server.port)
            client.healthz()
            sock = client._idle[-1].sock
            del client
            gc.collect()
            assert sock.fileno() == -1

"""The asyncio HTTP front end of the experiment service.

A deliberately small, stdlib-only HTTP/1.1 server over
``asyncio.start_server``: persistent connections, JSON bodies, chunked
transfer for the event stream.  A connection carries one request after
another; a response says ``Connection: close`` and the server hangs up
when the request asked for it or spoke HTTP/1.0, when it was malformed
(the next request cannot be found), or while the server drains.  The
event stream ends its connection, and a drain closes the connections
waiting for their next request.  All admission-control
decisions (rate limit, queue bound, drain) surface as proper HTTP
semantics -- ``429`` with ``Retry-After`` for backpressure, ``503``
with ``Retry-After`` while draining -- so ordinary HTTP clients
behave correctly against it.

Endpoints::

    GET    /                 service document
    GET    /healthz          liveness + queue/drain state
    GET    /metrics          JSON snapshot of the obs metrics registry
    POST   /jobs             submit a job (202 queued, 200 cached/coalesced)
    GET    /jobs             list jobs
    GET    /jobs/<id>        job status
    GET    /jobs/<id>/result result summary (409 + Retry-After until done)
    GET    /jobs/<id>/events chunked JSON stream of state transitions
    DELETE /jobs/<id>        cancel a queued job
    GET    /store/<key>      raw pickled store object (cluster merge)
    POST   /drain            begin graceful drain (idempotent)

Lifecycle: ``SIGTERM``/``SIGINT`` trigger the same graceful drain as
``POST /drain`` -- stop admitting, finish (or leave checkpointed) the
in-flight jobs, then exit.  :class:`ServerThread` runs the whole
server on a background thread for tests and embedding.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from typing import Mapping

from .. import __version__
from ..errors import ConfigError
from ..obs.metrics import REGISTRY as _METRICS
from ..store.artifacts import ArtifactStore
from .jobs import JobManager, ServiceDraining
from .limits import ClientRateLimiter, RateLimited
from .protocol import JobRequest, JobState
from .queue import QueueFull

#: Bounds on what we will read from a socket.
MAX_REQUEST_LINE = 4096
MAX_HEADERS = 64
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Poll interval for the event stream (seconds).
EVENT_POLL_S = 0.05

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _HttpError(Exception):
    """Internal: abort the request with a status + JSON error body."""

    def __init__(self, status: int, message: str,
                 headers: Mapping[str, str] | None = None):
        self.status = status
        self.message = message
        self.headers = dict(headers or {})
        super().__init__(message)


def _retry_after_header(seconds: float) -> dict[str, str]:
    return {"Retry-After": str(max(1, int(round(seconds))))}


#: What a route answers: ``(status, body, content type, extra headers)``.
_Response = tuple[int, bytes, str, Mapping[str, str]]


def _json_response(status: int, payload,
                   headers: Mapping[str, str] | None = None) -> _Response:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return status, body, "application/json", headers or {}


def _error_response(exc: _HttpError) -> _Response:
    return _json_response(exc.status, {"error": exc.message,
                                       "status": exc.status}, exc.headers)


class ReproServer:
    """The experiment service: HTTP front end over a :class:`JobManager`.

    Args:
        manager: the job manager (owns queue, executors, store).
        host / port: bind address; ``port=0`` picks a free port
            (exposed via :attr:`port` after :meth:`start`).
        limiter: per-client token-bucket admission limiter; ``None``
            installs the default (2 jobs/s sustained, burst 10).
        drain_grace_s: how long a drain waits for in-flight jobs.
    """

    def __init__(self, manager: JobManager, host: str = "127.0.0.1",
                 port: int = 8765,
                 limiter: ClientRateLimiter | None = None,
                 drain_grace_s: float = 30.0):
        self.manager = manager
        self.host = host
        self.port = port
        self.limiter = limiter if limiter is not None \
            else ClientRateLimiter()
        self.drain_grace_s = drain_grace_s
        self.started_at = 0.0
        self._server: asyncio.AbstractServer | None = None
        self._stopped = asyncio.Event()
        self._shutdown_task: asyncio.Task | None = None
        #: The handler task of every open connection, the connections
        #: waiting for their next request line, and whether the server
        #: has stopped listening.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._idle: set[asyncio.StreamWriter] = set()
        self._closing = False
        self._metrics = _METRICS.scoped("serve")
        self.drain_clean: bool | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Start the manager workers and bind the listening socket."""
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def request_shutdown(self) -> None:
        """Begin graceful drain + stop (idempotent, signal-safe)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self._shutdown())

    async def _shutdown(self) -> None:
        self.drain_clean = await self.manager.drain(self.drain_grace_s)
        if self._server is not None:
            # Stop accepting; an event stream ends at its next poll.
            self._closing = True
            self._server.close()
            # A connection waiting for its next request would hold the
            # stop up (3.12's ``wait_closed`` waits for every
            # connection): close it, and its handler sees EOF.
            for writer in self._idle:
                writer.close()
            # Let every handler return rather than be cancelled (a
            # cancelled one logs a traceback); cut off any client still
            # mid-request after the grace.
            if self._connections:
                _done, stuck = await asyncio.wait(
                    set(self._connections.values()),
                    timeout=self.drain_grace_s)
                for writer, task in self._connections.items():
                    if task in stuck:
                        writer.transport.abort()
                if stuck:
                    await asyncio.wait(stuck)
            await self._server.wait_closed()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # -- connection handling ---------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Answer requests on one connection until the client, a
        request or a drain ends it."""
        self._connections[writer] = asyncio.current_task()
        try:
            while await self._exchange(reader, writer):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            del self._connections[writer]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _exchange(self, reader, writer) -> bool:
        """Read one request and answer it; True when the connection
        stays open for the next one."""
        if self._closing:
            return False  # kept alive by a response sent as a stop began
        self._idle.add(writer)
        try:
            line = await reader.readline()
        except ValueError:  # past the stream's own 64 KiB line limit
            line = None
        finally:
            self._idle.discard(writer)
        if line == b"":
            return False  # the client hung up between requests
        try:
            method, path, version = self._parse_request_line(line)
            headers = await self._read_headers(reader)
            body = await self._read_body(reader, headers)
        except _HttpError as exc:
            # The start of the next request cannot be found.
            await self._send(writer, _error_response(exc), False)
            return False
        self._metrics.counter("http_requests").inc()
        try:
            response = await self._route(method, path, headers, body,
                                         writer)
        except _HttpError as exc:
            response = _error_response(exc)
        except Exception as exc:  # never kill the server loop
            self._metrics.counter("http_errors").inc()
            response = _error_response(_HttpError(
                500, f"{type(exc).__name__}: {exc}"))
        if response is None:
            return False  # an event stream ends its connection
        keep_alive = (version == "HTTP/1.1"
                      and "close" not in
                      headers.get("connection", "").lower()
                      and not self.manager.draining)
        await self._send(writer, response, keep_alive)
        return keep_alive

    @staticmethod
    def _parse_request_line(line: bytes | None) -> tuple[str, str, str]:
        if line is None or len(line) > MAX_REQUEST_LINE:
            raise _HttpError(400, "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, f"malformed request line: {parts!r}")
        return parts[0].upper(), parts[1], parts[2]

    async def _read_headers(self, reader) -> dict[str, str]:
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            try:
                line = await reader.readline()
            except ValueError:  # past the stream's own 64 KiB line limit
                line = None
            if line is None or len(line) > MAX_REQUEST_LINE:
                raise _HttpError(400, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header: {line!r}")
            headers[name.strip().lower()] = value.strip()
        raise _HttpError(400, "too many headers")

    async def _read_body(self, reader, headers) -> bytes:
        length = headers.get("content-length")
        if length is None:
            return b""
        try:
            n = int(length)
        except ValueError:
            raise _HttpError(400, f"bad Content-Length: {length!r}")
        if n < 0 or n > MAX_BODY_BYTES:
            raise _HttpError(413, f"body too large: {n} bytes")
        return await reader.readexactly(n) if n else b""

    # -- responses -------------------------------------------------------

    @staticmethod
    async def _send(writer, response: _Response, keep_alive: bool) -> None:
        status, body, content_type, headers = response
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
                f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        for name, value in headers.items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()

    # -- routing ---------------------------------------------------------

    async def _route(self, method: str, path: str, headers, body,
                     writer) -> _Response | None:
        """The response to one request, or None once an event stream
        has been written (it ends the connection)."""
        path = path.split("?", 1)[0]
        if path == "/" and method == "GET":
            return _json_response(200, {
                "service": "repro-serve", "version": __version__,
                "endpoints": ["/healthz", "/metrics", "/jobs",
                              "/jobs/<id>", "/jobs/<id>/result",
                              "/jobs/<id>/events", "/store/<key>",
                              "/drain"]})
        if path == "/healthz" and method == "GET":
            stats = self.manager.stats()
            return _json_response(200, {
                "status": "draining" if self.manager.draining else "ok",
                "uptime_s": time.time() - self.started_at,
                **stats})
        if path == "/metrics" and method == "GET":
            self._metrics.gauge("queue_depth").set(
                len(self.manager.queue))
            self._metrics.gauge("running").set(
                len(self.manager.running))
            return _json_response(200, {"metrics": _METRICS.snapshot()})
        if path == "/drain" and method == "POST":
            self.request_shutdown()
            return _json_response(202, {"status": "draining"})
        if path == "/jobs" and method == "POST":
            return self._submit(headers, body, writer)
        if path == "/jobs" and method == "GET":
            return _json_response(200, {
                "jobs": [job.to_dict()
                         for job in self.manager.jobs.values()]})
        if path.startswith("/jobs/"):
            return await self._job_route(method, path, writer)
        if path.startswith("/store/") and method == "GET":
            return self._store_fetch(path[len("/store/"):])
        raise _HttpError(404, f"no such endpoint: {method} {path}")

    def _store_fetch(self, key: str) -> _Response:
        """``GET /store/<key>``: the raw pickled object bytes.

        The cluster-merge transfer endpoint: peers pull completed
        artifacts (per-path results, serve-job payloads) by content
        address and write them into their own stores byte-for-byte.
        """
        store = self.manager.store
        if store is None:
            raise _HttpError(503, "this server runs without a store")
        try:
            data = store.get_bytes(key)
        except ConfigError as exc:
            raise _HttpError(400, str(exc))
        if data is None:
            raise _HttpError(404, f"no store object {key[:16]}...")
        self._metrics.counter("store_fetches").inc()
        self._metrics.counter("store_fetch_bytes").inc(len(data))
        return 200, data, "application/octet-stream", {}

    def _client_identity(self, headers, request: JobRequest,
                         writer) -> str:
        if request.client != "anonymous":
            return request.client
        header = headers.get("x-repro-client")
        if header:
            return header
        peer = writer.get_extra_info("peername")
        return peer[0] if peer else "unknown"

    def _submit(self, headers, body, writer) -> _Response:
        try:
            payload = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"bad JSON body: {exc}")
        try:
            request = JobRequest.from_dict(payload)
        except ConfigError as exc:
            raise _HttpError(400, str(exc))
        client = self._client_identity(headers, request, writer)
        try:
            self.limiter.check(client)
        except RateLimited as exc:
            self._metrics.counter("jobs_rejected_rate").inc()
            raise _HttpError(429, str(exc),
                             _retry_after_header(exc.retry_after_s))
        try:
            job, disposition = self.manager.submit(request)
        except ServiceDraining as exc:
            raise _HttpError(503, str(exc), _retry_after_header(5.0))
        except QueueFull as exc:
            self._metrics.counter("jobs_rejected_full").inc()
            raise _HttpError(429, str(exc),
                             _retry_after_header(exc.retry_after_s))
        except ConfigError as exc:
            raise _HttpError(400, str(exc))
        status = 202 if disposition == "queued" else 200
        return _json_response(status, {**job.to_dict(),
                                       "disposition": disposition})

    async def _job_route(self, method: str, path: str,
                         writer) -> _Response | None:
        parts = path.strip("/").split("/")
        job = self.manager.get_job(parts[1])
        if job is None:
            raise _HttpError(404, f"no such job: {parts[1]}")
        tail = parts[2] if len(parts) > 2 else ""
        if method == "DELETE" and not tail:
            ok, reason = self.manager.cancel(job.id)
            if not ok:
                raise _HttpError(409, f"cannot cancel: {reason}")
            return _json_response(200, job.to_dict())
        if method != "GET":
            raise _HttpError(405, f"{method} not allowed here")
        if not tail:
            return _json_response(200, job.to_dict())
        if tail == "result":
            if not job.terminal:
                raise _HttpError(409, f"job {job.id} is {job.state}",
                                 _retry_after_header(1.0))
            return _json_response(200, job.to_dict())
        if tail == "events":
            await self._stream_events(job, writer)
            return None
        raise _HttpError(404, f"no such endpoint: {path}")

    async def _stream_events(self, job, writer) -> None:
        """Chunked JSON-lines stream of job state transitions."""
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode())
        last_version = -1
        while True:
            if job.version != last_version:
                last_version = job.version
                line = (json.dumps(job.to_dict(), sort_keys=True)
                        + "\n").encode()
                writer.write(f"{len(line):x}\r\n".encode() + line
                             + b"\r\n")
                await writer.drain()
            if job.terminal or self._closing:
                break
            await asyncio.sleep(EVENT_POLL_S)
        writer.write(b"0\r\n\r\n")
        await writer.drain()


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


#: Default sentinel: ``serve_main(store=...)`` omitted means "the
#: default :class:`ArtifactStore`"; an explicit ``None`` disables the
#: store (no cache hits, no journal).
_AUTO_STORE = object()


async def serve_main(host: str = "127.0.0.1", port: int = 8765,
                     store=_AUTO_STORE,
                     queue_depth: int = 64, concurrency: int = 2,
                     job_workers: int | None = None,
                     timeout_s: float | None = None,
                     rate: float = 2.0, burst: float = 10.0,
                     drain_grace_s: float = 30.0) -> bool:
    """Run the service until a signal (or drain request) stops it.

    Returns True when the final drain was clean (no job left behind).
    """
    manager = JobManager(
        store=ArtifactStore() if store is _AUTO_STORE else store,
        queue_depth=queue_depth, concurrency=concurrency,
        job_workers=job_workers, timeout_s=timeout_s)
    server = ReproServer(manager, host=host, port=port,
                         limiter=ClientRateLimiter(rate=rate,
                                                   burst=burst),
                         drain_grace_s=drain_grace_s)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
    print(f"repro-serve listening on {server.address} "
          f"(queue={queue_depth}, concurrency={concurrency})",
          flush=True)
    await server.wait_stopped()
    clean = bool(server.drain_clean)
    print(f"repro-serve drained "
          f"{'cleanly' if clean else 'with jobs left checkpointed'}",
          flush=True)
    return clean


class ServerThread:
    """Run a :class:`ReproServer` on a background thread.

    For tests and embedding: starts the server (``port=0`` by default,
    so an OS-assigned free port) over a ``JobManager(**manager_kwargs)``,
    exposes :attr:`port`, and stops it with the same graceful drain as
    SIGTERM.  Usable as a context manager.
    """

    #: How long (seconds) a stop's drain waits for in-flight jobs.
    drain_grace_s = 10.0

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 limiter: ClientRateLimiter | None = None, **manager_kwargs):
        self.manager = JobManager(**manager_kwargs)
        self._host = host
        self._port = port
        self._limiter = limiter
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.server: ReproServer | None = None
        self.error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    @property
    def address(self) -> str:
        assert self.server is not None
        return self.server.address

    async def _main(self) -> None:
        try:
            self.server = ReproServer(
                self.manager, host=self._host, port=self._port,
                limiter=self._limiter,
                drain_grace_s=self.drain_grace_s)
            await self.server.start()
            self._loop = asyncio.get_running_loop()
        except BaseException as exc:
            self.error = exc
            self._ready.set()
            raise
        self._ready.set()
        await self.server.wait_stopped()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self.error is not None:
            raise self.error
        if self.server is None:
            raise ConfigError("server thread failed to start")
        return self

    def stop(self) -> bool:
        """Graceful drain + stop (waiting up to 30 s for the thread);
        True when the drain was clean."""
        if self._loop is not None and self.server is not None:
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        return bool(self.server.drain_clean) if self.server else False

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

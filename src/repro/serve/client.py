"""Blocking stdlib client for the experiment service.

:class:`ServeClient` wraps ``http.client`` with the service's
semantics: JSON in/out, typed :class:`ServeError` failures carrying the
HTTP status and the server's ``Retry-After`` hint, submit-and-wait
convenience, and an iterator over the chunked job event stream.  It
keeps its connections open between requests: each request takes an
idle one (or opens one), so threads may share a client, and
:meth:`ServeClient.close` (or leaving a ``with`` block) closes them.

>>> client = ServeClient(port=8765)            # doctest: +SKIP
>>> job = client.submit("pipeline", {"flows": 500})   # doctest: +SKIP
>>> result = client.wait(job["id"])            # doctest: +SKIP
>>> result["summary"]["total"]                 # doctest: +SKIP
500
"""

from __future__ import annotations

import http.client
import json
import time
import weakref
from typing import Iterator, Mapping

from ..errors import ReproError

#: Seconds between :meth:`ServeClient.wait`'s status polls.
POLL_S = 0.2


class ServeError(ReproError):
    """An HTTP-level failure from the experiment service.

    Attributes:
        status: the HTTP status code (0 for transport failures).
        payload: the parsed JSON error document (may be empty).
        retry_after_s: the server's ``Retry-After`` hint, if any.
    """

    def __init__(self, status: int, message: str,
                 payload: Mapping | None = None,
                 retry_after_s: float | None = None):
        self.status = status
        self.payload = dict(payload or {})
        self.retry_after_s = retry_after_s
        super().__init__(f"HTTP {status}: {message}" if status
                         else message)


class JobFailed(ServeError):
    """A waited-on job reached a non-``done`` terminal state."""


class ServeClient:
    """Client for one ``repro serve`` instance.

    Args:
        host / port: where the server listens.
        timeout: per-request read timeout (seconds) -- how long one
            response may take once the connection is up.
        client_id: identity sent with every request (rate limiting);
            defaults to the server-observed peer address.
        connect_timeout: TCP connect timeout (seconds); defaults to
            ``timeout``.  Distinct from both the read timeout and any
            job-level deadline, so a hung or unreachable node fails a
            coordinator's dispatch attempt in ``connect_timeout``
            seconds instead of stalling it for a job's lifetime.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8765,
                 timeout: float = 30.0, client_id: str | None = None,
                 connect_timeout: float | None = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.client_id = client_id
        self.connect_timeout = (connect_timeout
                                if connect_timeout is not None
                                else timeout)
        #: Idle keep-alive connections, most recently used last; a
        #: request takes one and puts it back when the server keeps it.
        self._idle: list[http.client.HTTPConnection] = []
        # A client dropped without close() still closes its sockets.
        weakref.finalize(self, _close_all, self._idle)

    # -- plumbing --------------------------------------------------------

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        _close_all(self._idle)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.client_id:
            headers["X-Repro-Client"] = self.client_id
        return headers

    def _unreachable(self, exc: BaseException) -> ServeError:
        return ServeError(0, f"cannot reach {self.host}:{self.port}: "
                             f"{exc}")

    def _connect(self) -> http.client.HTTPConnection:
        """Open one connection: connect under ``connect_timeout``, then
        rearm the socket with the read ``timeout``."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.connect_timeout)
        try:
            conn.connect()
        except OSError as exc:
            conn.close()
            raise self._unreachable(exc)
        if conn.sock is not None:
            conn.sock.settimeout(self.timeout)
        return conn

    def _open(self, method: str, path: str, data: bytes | None = None
              ) -> tuple[http.client.HTTPConnection,
                         http.client.HTTPResponse]:
        """Send one request on an idle connection, or a new one when
        none is idle; return the connection and the response, its body
        unread.

        The server closes only idle connections (at a drain or a
        restart), so a reused one that fails before any response byte
        never had the request read: it is replayed once on a new
        connection.  A new connection that fails raises status 0.
        """
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = None
        while True:
            fresh = conn is None
            if fresh:
                conn = self._connect()
            try:
                conn.request(method, path, body=data,
                             headers=self._headers())
                return conn, conn.getresponse()
            except (BrokenPipeError, ConnectionResetError) as exc:
                conn.close()
                if fresh:
                    raise self._unreachable(exc)
                conn = None
            except OSError as exc:
                conn.close()
                raise self._unreachable(exc)
            except BaseException:
                conn.close()
                raise

    def _exchange(self, method: str, path: str,
                  data: bytes | None = None) -> bytes:
        """One request and its whole response body; the connection goes
        back to the idle stack unless the server ends it.

        Raises:
            ServeError: status >= 400 (with the server's error document
                and ``Retry-After``), or 0 on transport failures.
        """
        conn, response = self._open(method, path, data)
        try:
            raw = response.read()
        except OSError as exc:
            conn.close()
            raise self._unreachable(exc)
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            self._idle.append(conn)
        if response.status >= 400:
            raise _status_error(response, raw)
        return raw

    def _request(self, method: str, path: str,
                 body: Mapping | None = None) -> dict:
        raw = self._exchange(
            method, path,
            json.dumps(body).encode() if body is not None else None)
        return _json_document(raw)

    # -- service state ---------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        """The server's obs metrics registry snapshot."""
        return self._request("GET", "/metrics")["metrics"]

    def fetch_store(self, key: str) -> bytes:
        """Raw pickled object bytes from the server's artifact store.

        The cluster-merge transfer primitive (``GET /store/<key>``):
        the response body is exactly what the remote store holds under
        the content address ``key``, suitable for
        :meth:`repro.store.ArtifactStore.put_bytes`.

        Raises:
            ServeError: 404 on a missing key, 400 on a malformed one,
                503 when the server runs without a store, 0 on
                transport failures.
        """
        return self._exchange("GET", f"/store/{key}")

    def drain(self) -> dict:
        """Ask the server to drain and shut down gracefully."""
        return self._request("POST", "/drain")

    # -- jobs ------------------------------------------------------------

    def submit(self, kind: str, params: Mapping | None = None,
               priority: int = 5) -> dict:
        """Submit one job; returns the job status document.

        The response's ``disposition`` field says what happened:
        ``"cached"`` (already computed, ``summary`` is present),
        ``"coalesced"`` (an identical job is in flight; poll its id),
        or ``"queued"``.
        """
        body = {"kind": kind, "params": dict(params or {}),
                "priority": priority}
        if self.client_id:
            body["client"] = self.client_id
        return self._request("POST", "/jobs", body)

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """The terminal job document (raises 409 ServeError until then)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Poll every :data:`POLL_S` until the job is terminal; return
        its result document.

        Raises:
            JobFailed: the job finished as failed/timeout/cancelled.
            ServeError: transport failures, or the wait timed out.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "timeout",
                                   "cancelled"):
                if status["state"] != "done":
                    raise JobFailed(
                        200, f"job {job_id} {status['state']}: "
                             f"{status.get('error', '')}", status)
                return status
            if time.monotonic() >= deadline:
                raise ServeError(
                    0, f"timed out after {timeout:g}s waiting for "
                       f"{job_id} (state: {status['state']})")
            time.sleep(POLL_S)

    def events(self, job_id: str) -> Iterator[dict]:
        """Stream the job's state transitions until it is terminal.

        Yields one parsed JSON document per transition (the server's
        chunked NDJSON stream, decoded by ``http.client``).
        """
        conn, response = self._open("GET", f"/jobs/{job_id}/events")
        try:
            if response.status >= 400:
                raise _status_error(response, response.read())
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode())
        finally:
            response.close()
            conn.close()


def _json_document(raw: bytes) -> dict:
    try:
        return json.loads(raw.decode() or "{}")
    except ValueError:
        return {"error": raw.decode(errors="replace")}


def _status_error(response: http.client.HTTPResponse,
                  raw: bytes) -> ServeError:
    payload = _json_document(raw)
    retry_after = response.getheader("Retry-After")
    return ServeError(response.status,
                      payload.get("error", response.reason), payload,
                      float(retry_after) if retry_after else None)


def _close_all(conns: list[http.client.HTTPConnection]) -> None:
    """Close and drop every connection in ``conns``."""
    while conns:
        try:
            conns.pop().close()
        except IndexError:
            return  # another thread took the last one

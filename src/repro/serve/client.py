"""Blocking stdlib client for the experiment service.

:class:`ServeClient` wraps ``http.client`` (one connection per call --
the server is connection-per-request) with the service's semantics:
JSON in/out, typed :class:`ServeError` failures carrying the HTTP
status and the server's ``Retry-After`` hint, submit-and-wait
convenience, and an iterator over the chunked job event stream.

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

    # -- plumbing --------------------------------------------------------

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.client_id:
            headers["X-Repro-Client"] = self.client_id
        return headers

    def _connect(self) -> http.client.HTTPConnection:
        """Open one connection: connect under ``connect_timeout``, then
        rearm the socket with the read ``timeout``."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.connect_timeout)
        try:
            conn.connect()
        except (ConnectionError, OSError) as exc:
            conn.close()
            raise ServeError(0, f"cannot reach {self.host}:"
                                f"{self.port}: {exc}")
        if conn.sock is not None:
            conn.sock.settimeout(self.timeout)
        return conn

    def _request(self, method: str, path: str,
                 body: Mapping | None = None) -> dict:
        conn = self._connect()
        try:
            data = json.dumps(body).encode() if body is not None else None
            try:
                conn.request(method, path, body=data,
                             headers=self._headers())
                response = conn.getresponse()
                raw = response.read()
            except (ConnectionError, OSError) as exc:
                raise ServeError(0, f"cannot reach {self.host}:"
                                    f"{self.port}: {exc}")
            try:
                payload = json.loads(raw.decode() or "{}")
            except ValueError:
                payload = {"error": raw.decode(errors="replace")}
            if response.status >= 400:
                retry_after = response.getheader("Retry-After")
                raise ServeError(
                    response.status,
                    payload.get("error", response.reason),
                    payload,
                    float(retry_after) if retry_after else None)
            return payload
        finally:
            conn.close()

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
        conn = self._connect()
        try:
            try:
                conn.request("GET", f"/store/{key}",
                             headers=self._headers())
                response = conn.getresponse()
                raw = response.read()
            except (ConnectionError, OSError) as exc:
                raise ServeError(0, f"cannot reach {self.host}:"
                                    f"{self.port}: {exc}")
            if response.status >= 400:
                try:
                    payload = json.loads(raw.decode() or "{}")
                except ValueError:
                    payload = {"error": raw.decode(errors="replace")}
                raise ServeError(response.status,
                                 payload.get("error", response.reason),
                                 payload)
            return raw
        finally:
            conn.close()

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
        conn = self._connect()
        try:
            conn.request("GET", f"/jobs/{job_id}/events",
                         headers=self._headers())
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    payload = json.loads(raw.decode() or "{}")
                except ValueError:
                    payload = {}
                raise ServeError(response.status,
                                 payload.get("error", response.reason),
                                 payload)
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode())
        finally:
            conn.close()

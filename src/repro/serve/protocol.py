"""Wire protocol for the experiment service: requests, jobs, states.

A :class:`JobRequest` is the unit of admission -- a JSON document
naming a job *kind* (campaign, pipeline, sweep, qa-search, experiment)
plus that kind's parameters.  Requests round-trip through plain dicts,
and every request has a deterministic **fingerprint**: the store
fingerprint of its semantic payload (kind + params, minus
execution-only knobs like ``workers``).  The fingerprint is what makes
the service idempotent -- completed fingerprints are answered from the
artifact store, and identical in-flight fingerprints coalesce onto one
execution.

A :class:`Job` is the server-side record of one admitted request: its
lifecycle state, timing, result summary, and coalescing accounting.
Jobs serialize to JSON for every status/result endpoint; only the
*summary* travels over HTTP -- the full result payload stays in the
artifact store under the job's fingerprint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ConfigError
from ..store.fingerprint import canonicalize, fingerprint

#: Job parameters that do not change the result (the determinism
#: contract makes results worker-count invariant), excluded from the
#: request fingerprint so e.g. ``workers=1`` and ``workers=8``
#: submissions of the same config share one cache entry.
NONSEMANTIC_PARAMS = ("workers",)

#: Priority range; smaller is more urgent (ties break FIFO).
PRIORITY_MIN, PRIORITY_MAX = 0, 9
PRIORITY_DEFAULT = 5

#: Fingerprint namespace for serve jobs in the artifact store.
JOB_KIND = "serve-job"


class JobState:
    """Job lifecycle states (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"

    #: States a job never leaves.
    TERMINAL = frozenset({DONE, FAILED, TIMEOUT, CANCELLED})


@dataclass(frozen=True)
class JobRequest:
    """One experiment request, as admitted over HTTP.

    Attributes:
        kind: job family ("campaign", "pipeline", "sweep", "qa-search",
            "experiment", ...); the executor registry in
            :mod:`repro.serve.jobs` decides which kinds exist.
        params: kind-specific parameters (JSON object).
        priority: 0 (most urgent) .. 9; default 5.
        client: client identity for rate limiting and accounting.
    """

    kind: str
    params: Mapping = field(default_factory=dict)
    priority: int = PRIORITY_DEFAULT
    client: str = "anonymous"

    def __post_init__(self):
        if not isinstance(self.kind, str) or not self.kind:
            raise ConfigError(f"job kind must be a non-empty string: "
                              f"{self.kind!r}")
        if not isinstance(self.params, Mapping):
            raise ConfigError(
                f"job params must be an object: {type(self.params).__name__}")
        if (not isinstance(self.priority, int)
                or isinstance(self.priority, bool)
                or not PRIORITY_MIN <= self.priority <= PRIORITY_MAX):
            raise ConfigError(
                f"priority must be an integer in "
                f"[{PRIORITY_MIN}, {PRIORITY_MAX}]: {self.priority!r}")
        if (not isinstance(self.client, str) or not self.client
                or len(self.client) > 120):
            raise ConfigError(f"client must be a short non-empty string: "
                              f"{self.client!r}")
        # Fail at admission, not mid-execution: every param must have a
        # canonical form (this also rejects non-JSON payloads).
        canonicalize(dict(self.params))

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobRequest":
        """Parse a request document; :class:`ConfigError` on bad input."""
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"request body must be a JSON object: "
                f"{type(payload).__name__}")
        unknown = set(payload) - {"kind", "params", "priority", "client"}
        if unknown:
            raise ConfigError(
                f"unknown request fields: {', '.join(sorted(unknown))}")
        if "kind" not in payload:
            raise ConfigError("request needs a 'kind' field")
        return cls(kind=payload["kind"],
                   params=payload.get("params", {}),
                   priority=payload.get("priority", PRIORITY_DEFAULT),
                   client=payload.get("client", "anonymous"))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params),
                "priority": self.priority, "client": self.client}

    # -- identity --------------------------------------------------------

    def fingerprint(self) -> str:
        """Deterministic identity of this request's *result*.

        Priority and client identity are delivery concerns, and
        :data:`NONSEMANTIC_PARAMS` cannot change results, so none of
        them participate -- two clients asking for the same experiment
        at different priorities share one cache entry and coalesce.
        """
        params = {k: v for k, v in self.params.items()
                  if k not in NONSEMANTIC_PARAMS}
        return fingerprint({"kind": self.kind, "params": params},
                           kind=JOB_KIND)


_JOB_SEQ = itertools.count(1)


@dataclass
class Job:
    """Server-side record of one admitted request.

    Attributes:
        id: server-assigned job id (stable for the job's lifetime;
            coalesced submissions receive the primary job's id).
        request: the admitted request.
        key: the request fingerprint (artifact-store key of the result).
        state: one of :class:`JobState`.
        cached: True when the job was answered from the store without
            executing.
        waiters: identical submissions coalesced onto this execution
            (1 = just the original submitter).
        summary: JSON-able result summary (terminal successful jobs).
        version: bumped on every state change (event streaming).
    """

    request: JobRequest
    key: str
    id: str = ""
    state: str = JobState.QUEUED
    created: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    cached: bool = False
    waiters: int = 1
    error: str = ""
    error_type: str = ""
    summary: dict | None = None
    version: int = 0

    def __post_init__(self):
        if not self.id:
            self.id = f"job-{next(_JOB_SEQ):06d}-{self.key[:8]}"

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def transition(self, state: str, now: float) -> None:
        """Move to ``state``, stamping timing and bumping the version."""
        self.state = state
        if state == JobState.RUNNING and not self.started:
            self.started = now
        if state in JobState.TERMINAL and not self.finished:
            self.finished = now
        self.version += 1

    def to_dict(self) -> dict:
        """The JSON status document every job endpoint returns."""
        out = {
            "id": self.id,
            "key": self.key,
            "kind": self.request.kind,
            "state": self.state,
            "priority": self.request.priority,
            "client": self.request.client,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "cached": self.cached,
            "waiters": self.waiters,
            "version": self.version,
        }
        if self.error:
            out["error"] = self.error
            out["error_type"] = self.error_type
        if self.terminal and self.summary is not None:
            out["summary"] = self.summary
        return out

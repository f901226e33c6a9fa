"""``repro.serve``: the always-on experiment service.

Every other layer in this repo is batch-shaped -- one process, one
campaign, exit.  The paper's operational framing is the opposite: §3.1
is a continuously-running passive pipeline over M-Lab NDT (a 24/7
measurement service) and §3.2's Nimbus probes ship embedded in live
senders.  This package gives the reproduction that shape: a long-lived
asyncio HTTP service that accepts experiment requests as JSON, runs
them on the existing runtime/store machinery, and streams results
back.

The production-robustness core:

* **Idempotent admission** -- requests are fingerprinted with
  :func:`repro.store.fingerprint` on arrival; completed fingerprints
  are answered straight from the artifact store (no execution) and
  identical in-flight requests coalesce onto one execution.
* **Backpressure** -- a bounded priority queue; when it is full,
  clients get ``429`` with a latency-derived ``Retry-After``.
* **Rate limiting** -- per-client token buckets at admission.
* **Graceful drain** -- ``SIGTERM`` (or ``POST /drain``) stops
  admission and lets in-flight jobs finish; anything still unfinished
  stays journaled and store-checkpointed, so a restarted server
  resumes it.
* **Observability** -- ``/healthz`` and ``/metrics`` export the
  :mod:`repro.obs` registry plus serve-specific queue/admission/
  coalescing/latency instruments.

See SERVING.md for the API reference and lifecycle details.
"""

from .client import JobFailed, ServeClient, ServeError
from .jobs import EXECUTORS, JobManager, ServiceDraining, bind_params
from .limits import ClientRateLimiter, RateLimited, TokenBucket
from .protocol import Job, JobRequest, JobState
from .queue import JobQueue, QueueFull
from .server import ReproServer, ServerThread, serve_main

__all__ = [
    "ClientRateLimiter", "EXECUTORS", "Job", "JobFailed", "JobManager",
    "JobQueue", "JobRequest", "JobState", "QueueFull", "RateLimited",
    "ReproServer", "ServeClient", "ServeError", "ServerThread",
    "ServiceDraining", "TokenBucket", "bind_params", "serve_main",
]

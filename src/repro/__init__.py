"""repro: a reproduction of "How I Learned to Stop Worrying About CCA
Contention" (Brown et al., HotNets '23).

The package provides, bottom-up:

* :mod:`repro.sim` -- a packet-level discrete-event network simulator
  (the stand-in for Mahimahi and real Internet paths).
* :mod:`repro.qdisc` -- the in-network bandwidth-management toolbox the
  paper argues now governs allocations: FIFO, RED, CoDel, fair queueing,
  token-bucket shaping, policing, per-user HTB plans.
* :mod:`repro.tcp` -- a TCP-like reliable transport with Linux-style
  ``TCPInfo`` instrumentation (the fields M-Lab NDT records).
* :mod:`repro.cca` -- congestion control algorithms: Reno, NewReno,
  Cubic, BBR, Vegas, Copa, Nimbus, and a non-reactive CBR sender.
* :mod:`repro.core` -- the paper's contribution: Nimbus-style elasticity
  probing as an *active measurement* of CCA contention, plus campaign
  and hypothesis-evaluation machinery (§3.2).
* :mod:`repro.traffic` -- workload generators (backlogged, ABR video,
  Poisson short flows, CBR, cloud gaming, web browsing).
* :mod:`repro.ndt` -- a synthetic M-Lab NDT dataset and the passive
  analysis pipeline of §3.1.
* :mod:`repro.analysis` -- change-point detection, fairness metrics,
  time-series and distribution statistics.
* :mod:`repro.experiments` -- runnable reproductions of the paper's
  figures and the ablations DESIGN.md calls out.
* :mod:`repro.runtime` -- the process-pool parallel map the campaign,
  the NDT pipeline, and parameter sweeps fan out over (deterministic:
  serial and parallel runs are bit-for-bit identical), plus
  fault-tolerant task execution (retry, backoff, timeout, quarantine).
* :mod:`repro.store` -- the content-addressed result store and
  resumable campaign scheduler: deterministic config fingerprints,
  atomic on-disk artifacts (``$REPRO_STORE``/``~/.cache/repro``),
  per-task checkpointing, and cache-aware reruns that only execute
  what changed.
* :mod:`repro.serve` -- the always-on experiment service
  (``repro serve``): a stdlib asyncio HTTP server with idempotent
  fingerprint-based admission (store cache hits, in-flight request
  coalescing), a bounded priority queue with 429 + Retry-After
  backpressure, per-client token-bucket rate limiting, and graceful
  SIGTERM drain with journal-based resume (see SERVING.md).

Quickstart::

    from repro import quicklook_elasticity
    result = quicklook_elasticity(cross_traffic="reno")
    print(result.mean_elasticity, result.verdict)
"""

from .errors import (AnalysisError, ConfigError, ReproError, SimulationError,
                     TraceFormatError, TransportError)
from .units import mbps, ms, to_mbps, to_ms

__version__ = "1.0.0"

__all__ = [
    "ReproError", "SimulationError", "ConfigError", "TraceFormatError",
    "TransportError", "AnalysisError",
    "mbps", "ms", "to_mbps", "to_ms",
    "quicklook_elasticity",
    "__version__",
]


def quicklook_elasticity(cross_traffic: str):
    """Run a small single-path elasticity probe (30 s) against
    ``cross_traffic`` and return its report.

    A convenience wrapper around :class:`repro.core.probe.ElasticityProbe`
    for interactive exploration; see :mod:`repro.experiments.fig3` for
    the full Figure 3 reproduction.
    """
    from .core.quicklook import run_quicklook
    return run_quicklook(cross_traffic=cross_traffic)

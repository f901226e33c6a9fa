"""Parallel execution substrate.

The paper-scale workloads in this repo are embarrassingly parallel --
one independent probe simulation per sampled path (E7), one independent
categorize + change-point run per NDT flow (Figure 2), one independent
experiment run per sweep point -- yet they were originally executed
serially.  :mod:`repro.runtime` provides the process-pool map they all
share:

* :func:`parallel_map` / :class:`ParallelExecutor` -- ordered,
  chunked, process-pool ``map`` with progress callbacks and an
  automatic serial fallback (``workers <= 1``, unpicklable work, or an
  unavailable pool all degrade gracefully to the plain loop).
* :meth:`ParallelExecutor.imap_tasks` -- fault-tolerant execution
  under a :class:`FaultPolicy` (per-task retry with exponential
  backoff, per-task timeout, deterministic ``REPRO_FAULT_RATE`` fault
  injection); failures come back as
  ``ok=False`` :class:`TaskOutcome` records instead of exceptions, so
  the :mod:`repro.store` scheduler can quarantine them.
* :func:`resolve_workers` -- worker-count policy: explicit argument,
  then the ``REPRO_WORKERS`` environment variable, then the CPU count.
* :func:`derive_seed` -- per-task deterministic child seeds.

Determinism contract: every task function used with this module must be
a pure function of its item (each item carries its own seed), so the
result list is bit-for-bit identical for any worker count -- results
are always reassembled in submission order.
"""

from .pool import (DEFAULT_WORKERS_ENV, FAULT_RATE_ENV, FaultPolicy,
                   InjectedFault, ParallelExecutor, TaskOutcome,
                   TaskTimeout, derive_seed, fault_rate, parallel_map,
                   resolve_workers)

__all__ = ["DEFAULT_WORKERS_ENV", "FAULT_RATE_ENV", "FaultPolicy",
           "InjectedFault", "ParallelExecutor", "TaskOutcome",
           "TaskTimeout", "derive_seed", "fault_rate", "parallel_map",
           "resolve_workers"]

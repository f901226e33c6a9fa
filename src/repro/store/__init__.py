"""`repro.store`: content-addressed result store + resumable scheduling.

The paper's headline artifacts are embarrassingly parallel sweeps over
deterministic seeded configs -- exactly the workload where a cache and
a checkpointing scheduler turn "rerun everything" into "rerun only what
changed".  This package provides:

* :mod:`~repro.store.fingerprint` -- canonical config fingerprints
  (SHA-256 over canonical JSON, salted with the code version).
* :mod:`~repro.store.artifacts` -- :class:`ArtifactStore`, the
  content-addressed on-disk store (``$REPRO_STORE`` or
  ``~/.cache/repro``) with atomic writes, a JSON accounting index, and
  age/LRU pruning.
* :mod:`~repro.store.scheduler` -- :class:`ResumableScheduler`, which
  consults the store before dispatching, checkpoints every completed
  task, quarantines persistent failures, and resumes interrupted runs.
* :mod:`~repro.store.atomic` -- the crash-safe write helpers everything
  above (and the experiment report writers) share.

Cache policy
------------
Library entry points take an explicit ``store=`` argument.
``Campaign.run`` and ``run_pipeline_streaming`` fall back, when it is
omitted, to the **ambient store**: whatever an enclosing
:func:`using_store` scope set, otherwise none, so plain library use and
the test suite stay side-effect-free.  ``sweep`` has no fallback: its
``store=None`` means no caching.  The CLI opens a :func:`using_store`
scope for ``repro run`` / ``repro metrics`` / ``repro trace`` unless
``--no-cache`` is given.
"""

from __future__ import annotations

import contextlib

from .artifacts import STORE_ENV, ArtifactStore, default_root
from .atomic import (atomic_open, atomic_write_bytes, atomic_write_json,
                     atomic_write_text)
from .fingerprint import (CODE_VERSION, STORE_SCHEMA_VERSION,
                          callable_config, canonical_json, canonicalize,
                          fingerprint)
from .scheduler import ResumableScheduler, SchedulerReport

_active: ArtifactStore | None = None


def active_store() -> ArtifactStore | None:
    """The ambient store: the innermost :func:`using_store` scope's,
    or ``None`` (no caching) outside one."""
    return _active


@contextlib.contextmanager
def using_store(store: ArtifactStore | None):
    """Make ``store`` (``None``: no caching) the ambient store for the
    block; restores the prior state."""
    global _active
    prior = _active
    _active = store
    try:
        yield store
    finally:
        _active = prior


__all__ = [
    "ArtifactStore", "ResumableScheduler", "SchedulerReport",
    "STORE_ENV", "CODE_VERSION", "STORE_SCHEMA_VERSION",
    "default_root", "fingerprint",
    "canonical_json", "canonicalize", "callable_config",
    "atomic_open", "atomic_write_text", "atomic_write_bytes",
    "atomic_write_json",
    "active_store", "using_store",
]

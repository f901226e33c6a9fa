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
Library entry points (``Campaign.run``, ``sweep``,
``run_pipeline_streaming``) take an explicit ``store=`` argument; when
it is omitted they fall back to the **ambient store**: enabled when
``REPRO_CACHE=1`` (rooted at ``$REPRO_STORE``), otherwise off, so
plain library use and the test suite stay side-effect-free.  The CLI
turns the ambient store on for ``repro run`` / ``repro metrics`` /
``repro trace`` unless ``--no-cache`` is given.
"""

from __future__ import annotations

import contextlib
import os

from .artifacts import STORE_ENV, ArtifactStore, default_root
from .atomic import (atomic_open, atomic_write_bytes, atomic_write_json,
                     atomic_write_text)
from .fingerprint import (CODE_VERSION, STORE_SCHEMA_VERSION,
                          callable_config, canonical_json, canonicalize,
                          fingerprint)
from .scheduler import ResumableScheduler, SchedulerReport

#: When "1"/"true"/"yes", library calls without an explicit ``store=``
#: use the ambient store automatically.
CACHE_ENV = "REPRO_CACHE"

_UNSET = object()
_active: object = _UNSET


def active_store() -> ArtifactStore | None:
    """The ambient store, or ``None`` when caching is off.

    Resolution: a :func:`using_store` scope wins; otherwise
    ``REPRO_CACHE`` truthiness decides, with the store rooted per
    ``$REPRO_STORE`` / ``~/.cache/repro``.
    """
    if _active is not _UNSET:
        return _active  # type: ignore[return-value]
    if os.environ.get(CACHE_ENV, "").lower() in ("1", "true", "yes"):
        return ArtifactStore()
    return None


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
    "STORE_ENV", "CACHE_ENV", "CODE_VERSION", "STORE_SCHEMA_VERSION",
    "default_root", "fingerprint",
    "canonical_json", "canonicalize", "callable_config",
    "atomic_open", "atomic_write_text", "atomic_write_bytes",
    "atomic_write_json",
    "active_store", "using_store",
]

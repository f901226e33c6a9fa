"""Deterministic config fingerprints for the result store.

A fingerprint is SHA-256 over a *canonical* JSON serialization of a
config payload, salted with a code-version string.  Canonicalization
makes the digest a function of the config's **meaning**, not its
in-memory representation:

* dict key order never matters (keys are sorted),
* tuples and lists hash identically (both become JSON arrays),
* dataclasses hash as their field dicts, enums as their values,
  numpy scalars/arrays as plain Python numbers/lists,
* float formatting never matters -- ``0.50`` and ``0.5`` parse to the
  same IEEE-754 double and ``repr``-based JSON encoding of doubles is
  shortest-round-trip stable across platforms and Python >= 3.1.

The salt (:data:`CODE_VERSION`) folds the package version and a store
schema number into every digest, so bumping either invalidates all
cached results at once -- the cache can never serve a result computed
by semantically different code.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from typing import Mapping

from .. import __version__
from ..errors import ConfigError

#: Bump when cached-result semantics change without a package version
#: bump (e.g. a simulator bug fix that alters results).
#: 2: per-flow NDT seeding + mergeable Fig2Result (streaming pipeline).
#: 3: a link applies its transmission ends lazily, so a transmission
#: that ends at T has ended for every other event at T (packet-backend
#: same-time ties resolve differently), and E5 ``subpacket`` at an MSS
#: other than 1448 counts in its sender's MSS.
STORE_SCHEMA_VERSION = 3

#: The default fingerprint salt: package version + store schema.
CODE_VERSION = f"{__version__}+store{STORE_SCHEMA_VERSION}"


def canonicalize(obj):
    """Reduce ``obj`` to canonical JSON-able primitives.

    Raises :class:`ConfigError` for values with no canonical form
    (arbitrary objects, NaN floats) rather than hashing something
    unstable.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            raise ConfigError("cannot fingerprint NaN")
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonicalize(getattr(obj, f.name))
                for f in fields(obj)}
    if isinstance(obj, Mapping):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ConfigError(
                    f"fingerprint dict keys must be str, got {key!r}")
            out[key] = canonicalize(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        items = [canonicalize(v) for v in obj]
        return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))
    if hasattr(obj, "fingerprint_config"):  # opt-in hook for components
        return canonicalize(obj.fingerprint_config())
    if hasattr(obj, "value") and type(obj).__module__ != "builtins":  # enums
        return canonicalize(obj.value)
    if hasattr(obj, "dtype"):  # numpy scalar or array
        if getattr(obj, "ndim", 0) == 0:
            return canonicalize(obj.item())
        return canonicalize(obj.tolist())
    raise ConfigError(f"cannot fingerprint {type(obj).__name__}: {obj!r}")


def canonical_json(obj) -> str:
    """The canonical JSON string whose digest is the fingerprint."""
    return json.dumps(canonicalize(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def fingerprint(payload, kind: str = "generic") -> str:
    """SHA-256 hex digest of ``payload`` salted with :data:`CODE_VERSION`.

    Args:
        payload: any canonicalizable config value.
        kind: a namespace string ("path", "sweep", "experiment", ...)
            so configs of different task types can never collide.

    >>> fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
    True
    >>> fingerprint(0.5) == fingerprint(float("0.50"))
    True
    >>> fingerprint(1, kind="x") == fingerprint(1, kind="y")
    False
    """
    material = f"{CODE_VERSION}\x00{kind}\x00{canonical_json(payload)}"
    return hashlib.sha256(material.encode()).hexdigest()


def callable_config(fn) -> dict:
    """A canonical config describing a task callable.

    Handles module-level functions and ``functools.partial`` chains
    over them (the two shapes the pool can dispatch); bound arguments
    are part of the config, so partials with different parameters hash
    differently.
    """
    partial_args: list = []
    partial_kwargs: dict = {}
    while hasattr(fn, "func"):  # functools.partial
        partial_args = list(fn.args) + partial_args
        partial_kwargs = {**fn.keywords, **partial_kwargs}
        fn = fn.func
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise ConfigError(
            f"cannot fingerprint callable {fn!r}: needs a module-level "
            "function (or functools.partial of one)")
    return {
        "module": module,
        "qualname": qualname,
        "args": canonicalize(partial_args),
        "kwargs": canonicalize(partial_kwargs),
    }

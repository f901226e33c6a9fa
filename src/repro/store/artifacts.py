"""Content-addressed on-disk result store.

Layout (under ``$REPRO_STORE`` or ``~/.cache/repro``)::

    objects/<aa>/<digest>.pkl    pickled result payloads, named by the
                                 config fingerprint that produced them
    index.json                   per-entry metadata: size, kind, label,
                                 creation time, last access, hit count
    access.log                   one ``<key> <time> <h|m>`` line per
                                 ``get`` since the index last counted
    index.lock                   advisory lock serializing index saves
    checkpoints/<fp>.json        campaign checkpoint manifests
                                 (see repro.store.scheduler)

Every object and index write is atomic (tmp + ``os.replace``), so a
killed run never leaves a truncated object or index.  The index is an
accounting cache: if it is missing or corrupt it is rebuilt by scanning
``objects/``, so deleting ``index.json`` is always safe.

A ``get`` -- hit or miss -- costs the same whatever the store holds: it
opens the object, unpickles it and appends one line to ``access.log``
with a single ``O_APPEND`` write.  It takes no lock and neither reads
nor writes ``index.json``.  The log is *folded* into the index (hits
summed, ``last_access`` maxed, lifetime hits/misses added) under
``index.lock`` by the operations that change the index or report from
it -- ``put``/``put_bytes``/``delete``/``prune`` and ``stat``/
``entries`` -- and by the ``get`` that grows the log past
:data:`LOG_FOLD_BYTES`.  The index records how many log bytes it has
counted (``log_offset``) in the same atomic write as the counts, and a
fold counts only up to the last newline it read (an append still being
copied in waits for the next fold), so a line is counted exactly once
however appends and folds interleave; the log is cut back to empty only
once that offset passes :data:`LOG_FOLD_BYTES`.

What can be lost is accounting, never results: an access appended
between that cut's last read and its truncate, whatever a crash
between the cut and the index write had just folded, and a line a
crash tore mid-write lose their *counts* (each line begins with a
newline, so a torn line never swallows the one appended after it).
A ``put``'s entry is never lost, and a folded access never
moves an entry's ``last_access`` backwards, so LRU order holds.

Store operations feed the ``store.*`` counters on the process metrics
registry (:mod:`repro.obs.metrics`), which is how ``repro metrics``
and the CI cache-effectiveness job observe hit rates.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import threading
import time
from pathlib import Path

from ..errors import ConfigError
from ..obs.metrics import REGISTRY as _METRICS
from .atomic import atomic_write_bytes

#: Environment variable overriding the store root directory.
STORE_ENV = "REPRO_STORE"

#: Pinned pickle protocol so objects written by one interpreter stay
#: readable by the others we support.
PICKLE_PROTOCOL = 4

#: Once the index has counted this many bytes of ``access.log`` the
#: log is cut back to empty, and a ``get`` that grows it past this
#: folds it, so a server that only ever hits cannot grow it without
#: bound.  A fold costs O(entries) and a line is ~85 bytes, so this
#: spreads one fold over ~12,000 accesses.
LOG_FOLD_BYTES = 1024 * 1024

_INDEX_VERSION = 1


def default_root() -> Path:
    """The store root: ``$REPRO_STORE``, else ``~/.cache/repro``."""
    env = os.environ.get(STORE_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


class ArtifactStore:
    """Content-addressed pickle store with a JSON accounting index.

    Args:
        root: store directory; ``None`` defers to :func:`default_root`.

    Keys are fingerprint hex digests from
    :func:`repro.store.fingerprint.fingerprint`; values are arbitrary
    picklable results.  ``put`` records size accounting in
    ``index.json`` and ``get`` logs hits to ``access.log`` (see the
    module docstring); :meth:`prune` evicts by age and LRU byte budget.
    One handle may be shared between threads.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_root()
        self._index_path = self.root / "index.json"
        self._log_path = self.root / "access.log"
        self._index: dict | None = None
        # The index.json bytes ``_index`` was parsed from or saved as.
        self._index_bytes: bytes | None = None
        # Guards ``_index``; ``get`` touches neither.
        self._mutex = threading.Lock()
        self._metrics = _METRICS.scoped("store")

    # -- paths -----------------------------------------------------------

    def _object_path(self, key: str) -> Path:
        if len(key) < 8 or not all(c in "0123456789abcdef" for c in key):
            raise ConfigError(f"store key must be a hex digest: {key!r}")
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    def checkpoint_path(self, key: str) -> Path:
        """Where the checkpoint manifest for campaign ``key`` lives."""
        return self.root / "checkpoints" / f"{key}.json"

    # -- index -----------------------------------------------------------

    def _load_index(self) -> dict:
        """The index as ``index.json`` has it.

        The file is the truth.  This handle's parsed copy is reused
        only while the bytes on disk are the ones it last parsed or
        saved, i.e. no other handle or process has saved since.
        """
        try:
            data = self._index_path.read_bytes()
        except OSError:
            data = None
        if self._index is not None and data == self._index_bytes:
            return self._index
        try:
            if data is None:
                raise ValueError("index missing")
            index = json.loads(data)
            if index.get("version") != _INDEX_VERSION:
                raise ValueError("index version mismatch")
            if not isinstance(index.get("entries"), dict):
                raise ValueError("index entries table missing")
            self._sanitize_entries(index)
        except ValueError:
            index, data = self._rebuild_index(), None
        self._index, self._index_bytes = index, data
        return index

    @staticmethod
    def _entry_from_stat(path: Path) -> dict:
        """The entry for an object the index knows nothing about."""
        stat = path.stat()
        return {"size": stat.st_size, "kind": "unknown", "label": "",
                "created": stat.st_mtime, "last_access": stat.st_mtime,
                "hits": 0}

    def _sanitize_entries(self, index: dict) -> None:
        """Repair or drop torn index entries so accounting and gc
        never abort on a corrupt ``index.json``.

        A crash (or hand edit) can leave an entry that is not a dict,
        lacks the accounting fields, or carries an invalid key.  Each
        such entry is rebuilt from its object file's stat when the
        object exists, and silently dropped when it does not -- the
        same recovery :meth:`_rebuild_index` performs wholesale, but
        scoped to the damaged entries.
        """
        entries = index["entries"]
        for key in list(entries):
            entry = entries[key]
            if (isinstance(entry, dict)
                    and isinstance(entry.get("size"), (int, float))
                    and isinstance(entry.get("last_access"), (int, float))
                    and isinstance(entry.get("created"), (int, float))
                    and isinstance(entry.get("hits"), int)):
                continue
            try:
                entries[key] = self._entry_from_stat(self._object_path(key))
            except (ConfigError, OSError):
                # Invalid key or missing object: nothing to account.
                del entries[key]

    def _rebuild_index(self) -> dict:
        """Reconstruct accounting from the objects directory."""
        entries: dict[str, dict] = {}
        objects = self.root / "objects"
        if objects.is_dir():
            for path in sorted(objects.glob("*/*.pkl")):
                entries[path.stem] = self._entry_from_stat(path)
        return {"version": _INDEX_VERSION, "entries": entries,
                "hits": 0, "misses": 0}

    def _index_lock(self):
        """An exclusive advisory lock serializing index saves.

        Returns an open lock-file handle (close to release), or None
        where ``fcntl`` is unavailable -- saves then degrade to a
        best-effort read-modify-write, which can drop a concurrent
        writer's entry in a tight race.
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX fallback
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        lock = open(self.root / "index.lock", "w")
        fcntl.flock(lock, fcntl.LOCK_EX)
        return lock

    @contextlib.contextmanager
    def _locked_index(self, save: bool = True):
        """The index, current with disk and the access log, for the
        caller to read or change.

        Several store handles (server workers, a cluster coordinator
        pulling while a batch run computes) can share one root.  Object
        writes are safe by content addressing, but a blind index write
        would be last-writer-wins and drop what a concurrent handle
        added.  So every change is a read-modify-write of the on-disk
        index under the advisory file lock (and the handle's mutex,
        for threads sharing it), saved once on the way out.  Readers
        pass ``save=False`` and save only what the log fold changed.
        """
        with self._mutex:
            lock = self._index_lock()
            try:
                index = self._load_index()
                folded = self._fold_log(index)
                yield index
                if save or folded:
                    data = (json.dumps(index) + "\n").encode()
                    atomic_write_bytes(self._index_path, data)
                    self._index_bytes = data
            except BaseException:
                self._index = None  # half-changed: re-read next time
                raise
            finally:
                if lock is not None:
                    lock.close()

    def _log_access(self, key: str, outcome: str) -> None:
        """Count one ``get`` (``outcome`` is ``"hits"`` or ``"misses"``)
        on the registry and append it to the access log: lock-free,
        one write.

        ``O_APPEND`` puts each line whole at the end of the file
        whoever else is appending, which is what lets any number of
        handles and processes share the log.
        """
        self._metrics.counter(outcome).inc()
        # The leading newline ends a line a crash left torn, so that
        # line is skipped alone instead of swallowing this one.
        line = f"\n{key} {time.time():.6f} {outcome[0]}\n".encode()
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self._log_path, flags, 0o666)
        except FileNotFoundError:
            self.root.mkdir(parents=True, exist_ok=True)
            fd = os.open(self._log_path, flags, 0o666)
        try:
            os.write(fd, line)
            size = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)
        if size > LOG_FOLD_BYTES:
            with self._locked_index(save=False):
                pass

    def _fold_log(self, index: dict) -> bool:
        """Count the access lines ``index`` has not seen; True if any.

        Lines are ``<key> <time> <h|m>``, and a fold counts only lines
        whose newline it has read.  Anything else (a line torn by a
        crash or a full disk, ended by the next append's leading
        newline) is skipped, and so is the per-entry count of a hit
        whose object has since been deleted.
        """
        try:
            log = open(self._log_path, "r+b")
        except OSError:
            return False
        with log:
            offset = index.get("log_offset", 0)
            size = os.fstat(log.fileno()).st_size
            if not isinstance(offset, int) or not 0 <= offset <= size:
                offset = 0  # not this log: it was cut or replaced
            log.seek(offset)
            # Up to the last newline only: an append still being copied
            # in is counted whole by the next fold, not torn by this one.
            data = log.read()
            data = data[:data.rfind(b"\n") + 1]
            if not data:
                return False
            offset += len(data)
            if offset > LOG_FOLD_BYTES:
                log.truncate(0)
                offset = 0
        index["log_offset"] = offset
        entries = index["entries"]
        for line in data.decode(errors="replace").split("\n"):
            try:
                key, when, outcome = line.split()
                when = float(when)
            except ValueError:
                continue
            if outcome == "m":
                index["misses"] += 1
            elif outcome == "h":
                index["hits"] += 1
                entry = entries.get(key)
                if entry is None:
                    try:
                        entry = entries[key] = self._entry_from_stat(
                            self._object_path(key))
                    except (ConfigError, OSError):
                        continue
                entry["hits"] += 1
                entry["last_access"] = max(entry["last_access"], when)
        return True

    # -- core operations -------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self._object_path(key).exists()

    def get(self, key: str, default=None):
        """Fetch the payload for ``key``; ``default`` on miss.

        Hit or miss is logged for the index to count later (see the
        module docstring); an unreadable object (truncated by a crash
        predating atomic writes, or hand-edited) counts as a miss and
        is deleted.
        """
        path = self._object_path(key)
        try:
            with open(path, "rb") as f:
                payload = pickle.load(f)
        except FileNotFoundError:
            self._log_access(key, "misses")
            return default
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            # Unreadable object: drop it so the task re-runs.
            self.delete(key)
            self._log_access(key, "misses")
            return default
        self._log_access(key, "hits")
        return payload

    def put(self, key: str, payload, kind: str = "generic",
            label: str = "") -> Path:
        """Store ``payload`` under ``key`` (idempotent; atomic)."""
        return self.put_bytes(
            key, pickle.dumps(payload, protocol=PICKLE_PROTOCOL),
            kind, label)

    def get_bytes(self, key: str) -> bytes | None:
        """The raw pickled object bytes for ``key``; None on miss.

        The transfer primitive of cluster merge: bytes fetched from a
        remote node's store go straight into the local one through
        :meth:`put_bytes` without a decode/re-encode round trip, so the
        local object is byte-identical to the remote original.
        """
        path = self._object_path(key)
        try:
            with open(path, "rb") as f:
                return f.read()
        except OSError:
            return None

    def put_bytes(self, key: str, data: bytes, kind: str = "generic",
                  label: str = "") -> Path:
        """Store already-pickled ``data`` under ``key`` (idempotent;
        atomic).  The caller vouches that ``data`` is the pickled
        payload the content address ``key`` names."""
        if not isinstance(data, bytes):
            raise ConfigError(
                f"put_bytes needs bytes, got {type(data).__name__}")
        path = self._object_path(key)
        atomic_write_bytes(path, data)
        now = time.time()
        with self._locked_index() as index:
            prior = index["entries"].get(key) or {}
            index["entries"][key] = {
                "size": len(data),
                "kind": kind,
                "label": label,
                "created": prior.get("created", now),
                "last_access": now,
                "hits": prior.get("hits", 0),
            }
        self._metrics.counter("puts").inc()
        self._metrics.counter("bytes_written").inc(len(data))
        return path

    def delete(self, key: str) -> bool:
        """Remove one entry; True if it existed."""
        path = self._object_path(key)
        existed = path.exists()
        path.unlink(missing_ok=True)
        with self._locked_index() as index:
            index["entries"].pop(key, None)
        return existed

    # -- accounting ------------------------------------------------------

    def entries(self) -> dict[str, dict]:
        """The index's entry table (key -> metadata dict), a copy."""
        with self._locked_index(save=False) as index:
            return {k: dict(v) for k, v in index["entries"].items()}

    def stat(self) -> dict:
        """Aggregate accounting: entry/byte totals, hit/miss counters,
        per-kind breakdown."""
        by_kind: dict[str, dict] = {}
        total_bytes = 0
        with self._locked_index(save=False) as index:
            for entry in index["entries"].values():
                total_bytes += entry["size"]
                bucket = by_kind.setdefault(
                    entry["kind"], {"entries": 0, "bytes": 0})
                bucket["entries"] += 1
                bucket["bytes"] += entry["size"]
            return {
                "root": str(self.root),
                "entries": len(index["entries"]),
                "bytes": total_bytes,
                "hits": index["hits"],
                "misses": index["misses"],
                "by_kind": by_kind,
            }

    def prune(self, max_age_s: float | None = None,
              max_bytes: int | None = None) -> tuple[int, int]:
        """Evict entries by age, then LRU down to a byte budget.

        Args:
            max_age_s: drop entries whose last access is older.
            max_bytes: after age eviction, drop least-recently-used
                entries until the store fits the budget.

        Returns:
            ``(entries_evicted, bytes_freed)``.
        """
        if max_age_s is not None and max_age_s < 0:
            raise ConfigError(f"max_age_s must be >= 0: {max_age_s}")
        if max_bytes is not None and max_bytes < 0:
            raise ConfigError(f"max_bytes must be >= 0: {max_bytes}")
        now = time.time()
        evicted, freed = 0, 0
        with self._locked_index() as index:
            entries = index["entries"]

            def drop(key: str) -> None:
                nonlocal evicted, freed
                entry = entries.pop(key)
                try:
                    self._object_path(key).unlink(missing_ok=True)
                except ConfigError:
                    pass  # invalid key: the index entry is all there was
                evicted += 1
                freed += entry["size"]

            if max_age_s is not None:
                for key in [k for k, e in entries.items()
                            if now - e["last_access"] > max_age_s]:
                    drop(key)
            if max_bytes is not None:
                total = sum(e["size"] for e in entries.values())
                for key in sorted(
                        entries, key=lambda k: entries[k]["last_access"]):
                    if total <= max_bytes:
                        break
                    total -= entries[key]["size"]
                    drop(key)
        self._metrics.counter("evictions").inc(evicted)
        return evicted, freed

"""The cluster-run manifest: bookkeeping under ``store/cluster/``.

One JSON file per cluster run, keyed by the run's deterministic
fingerprint (a clustered campaign uses the campaign fingerprint).  The
journal records every task's terminal state and how the run ended
(``complete``, or ``partial`` when a task was quarantined or the
cluster died); ``repro cluster status`` lists it.

The journal is a record, not a resume index: the artifact store is the
source of truth for results, and a re-run dispatches only the tasks
whose artifacts the local store lacks (content addressing makes
re-pulling idempotent).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from ..store.artifacts import ArtifactStore
from ..store.atomic import atomic_write_json

JOURNAL_VERSION = 1


def journal_dir(store: ArtifactStore) -> Path:
    return store.root / "cluster"


class ClusterJournal:
    """Atomic per-run task ledger.

    Args:
        store: the coordinator's local artifact store (the journal
            lives under its root, next to the objects it refers to).
        run_key: deterministic identity of the cluster run.
    """

    def __init__(self, store: ArtifactStore, run_key: str):
        self.run_key = run_key
        self.path = journal_dir(store) / f"{run_key}.json"
        self._doc = {
            "version": JOURNAL_VERSION,
            "run": run_key,
            "created": time.time(),
            "status": "running",
            "tasks": {},
        }

    def _save(self) -> None:
        atomic_write_json(self.path, self._doc)

    # -- recording -------------------------------------------------------

    def record(self, key: str, status: str, node: str = "",
               error: str = "") -> None:
        """Record one task transition (terminal states persist)."""
        entry = {"status": status, "node": node,
                 "updated": time.time()}
        if error:
            entry["error"] = error
        self._doc["tasks"][key] = entry
        self._save()

    def finish(self, clean: bool) -> None:
        self._doc["status"] = "complete" if clean else "partial"
        self._doc["finished"] = time.time()
        self._save()


def list_journals(store: ArtifactStore) -> list[dict]:
    """Summaries of every cluster-run manifest under the store
    (``repro cluster status``)."""
    directory = journal_dir(store)
    if not directory.is_dir():
        return []
    rows = []
    for path in sorted(directory.glob("*.json")):
        try:
            with open(path) as f:
                doc = json.load(f)
            tasks = doc.get("tasks", {})
            if not isinstance(tasks, dict):
                raise ValueError
        except (OSError, ValueError):
            continue
        by_status: dict[str, int] = {}
        for entry in tasks.values():
            status = (entry.get("status", "?")
                      if isinstance(entry, dict) else "?")
            by_status[status] = by_status.get(status, 0) + 1
        rows.append({
            "run": doc.get("run", path.stem),
            "status": doc.get("status", "?"),
            "created": doc.get("created", 0.0),
            "tasks": sum(by_status.values()),
            "by_status": dict(sorted(by_status.items())),
        })
    return rows

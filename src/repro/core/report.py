"""Serializable result records for measurement outputs.

Experiments write their rows through these helpers so every figure's
backing data lands as CSV next to the printed output.  Writes are
atomic (tmp + ``os.replace`` via :mod:`repro.store.atomic`): a killed
run leaves either the previous complete file or the new one, never a
truncated artifact.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..store.atomic import atomic_open


def write_csv(path, rows: Iterable[Mapping | Sequence]) -> None:
    """Atomically write rows (dicts or sequences) as CSV.

    Dict rows take their header from the first row's keys; sequence
    rows, and an empty table, are written without one.
    """
    rows = list(rows)
    path = Path(path)
    with atomic_open(path, "w", newline="") as f:
        if not rows:
            return
        first = rows[0]
        if isinstance(first, Mapping):
            writer = csv.DictWriter(f, fieldnames=list(first.keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow(dict(row))
        else:
            csv.writer(f).writerows(rows)


def write_json(path, payload) -> None:
    """Atomically write a (possibly dataclass-bearing) payload as
    pretty JSON."""
    path = Path(path)

    def default(obj):
        if is_dataclass(obj) and not isinstance(obj, type):
            return asdict(obj)
        if hasattr(obj, "value"):  # enums
            return obj.value
        if hasattr(obj, "tolist"):  # numpy
            return obj.tolist()
        raise TypeError(f"not JSON-serializable: {type(obj)}")

    with atomic_open(path, "w") as f:
        json.dump(payload, f, indent=2, default=default)
        f.write("\n")

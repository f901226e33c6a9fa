"""Shared experiment scaffolding.

Each experiment module exposes ``run(**params) -> ExperimentResult``;
the CLI and the paper-scale tests call it with defaults (or
scaled-down "smoke" parameters).  Results carry printable text,
tabular rows for CSV export, and a metrics dict that tests and
EXPERIMENTS.md assertions key on.

All report artifacts are written atomically (tmp + ``os.replace`` via
:mod:`repro.store.atomic`), so a run killed mid-save never leaves a
truncated ``report.txt`` or ``metrics.json``; and saving over an
existing result either versions the new files (``report.1.txt``) or
requires ``force=True``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from ..core.report import write_csv, write_json
from ..errors import SweepPointError
from ..runtime import FaultPolicy, parallel_map
from ..store.atomic import atomic_write_text


def versioned_path(path: Path, version: int) -> Path:
    """``report.txt`` -> ``report.3.txt`` for version 3 (0 = as-is)."""
    if version <= 0:
        return path
    return path.with_name(f"{path.stem}.{version}{path.suffix}")


@dataclass
class ExperimentResult:
    """Uniform experiment output.

    Attributes:
        experiment: experiment id (e.g. "fig3").
        text: human-readable rendering (charts + tables).
        metrics: headline numbers, for assertions and EXPERIMENTS.md.
        tables: named row-sets to export as CSV.
        params: every argument of the ``run`` call, defaults included
            (filled in by :func:`records_params`).
        attachments: named JSON-able payloads saved alongside the
            report (e.g. the ``metrics_registry`` snapshot from
            :mod:`repro.obs.metrics`).
    """

    experiment: str
    text: str
    metrics: dict[str, float]
    tables: dict[str, list[Mapping]] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    attachments: dict[str, Mapping] = field(default_factory=dict)

    def save(self, out_dir: str | Path, force: bool = False) -> list[Path]:
        """Write text, metrics, and CSV tables under ``out_dir``.

        A prior result in the target directory is never silently
        overwritten: with ``force=True`` the new files replace it
        (atomically); otherwise they are written under the next free
        version suffix (``report.1.txt``, ``metrics.1.json``, ...)
        and the prior artifacts stay untouched.
        """
        out = Path(out_dir) / self.experiment
        out.mkdir(parents=True, exist_ok=True)
        version = 0
        if not force and (out / "report.txt").exists():
            version = 1
            while versioned_path(out / "report.txt", version).exists():
                version += 1
        written = []
        text_path = versioned_path(out / "report.txt", version)
        atomic_write_text(text_path, self.text + "\n")
        written.append(text_path)
        metrics_path = versioned_path(out / "metrics.json", version)
        write_json(metrics_path, {"experiment": self.experiment,
                                  "params": self.params,
                                  "metrics": self.metrics,
                                  "elapsed_s": self.elapsed_s})
        written.append(metrics_path)
        for name, rows in self.tables.items():
            csv_path = versioned_path(out / f"{name}.csv", version)
            write_csv(csv_path, rows)
            written.append(csv_path)
        for name, payload in self.attachments.items():
            json_path = versioned_path(out / f"{name}.json", version)
            write_json(json_path, payload)
            written.append(json_path)
        return written


def _json_ready(value):
    """Tuples as lists; a dataclass (``Phase``, ``PopulationModel``)
    as the list of its field values, so ``Type(*value)`` rebuilds it."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.astuple(value)
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def records_params(run):
    """Decorator for an experiment's ``run``: the result's ``params``
    is the call's bound arguments, so a saved ``metrics.json`` names
    everything needed to repeat the run."""
    signature = inspect.signature(run)

    @functools.wraps(run)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        result = run(*args, **kwargs)
        result.params = {name: _json_ready(value)
                         for name, value in bound.arguments.items()}
        return result

    return wrapper


class Stopwatch:
    """Context manager timing an experiment run."""

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._start
        return False


class _SweepPoint:
    """Picklable sweep-task wrapper that names the failing value.

    The pool transfers worker exceptions by pickling, which drops
    ``__cause__`` chains and tracebacks -- so without this wrapper a
    failed parallel sweep cannot say *which* value broke.  The wrapper
    raises :class:`SweepPointError` whose message carries the value;
    on the serial path the original exception is also chained.
    """

    def __init__(self, run_fn, label: str):
        self.run_fn = run_fn
        self.label = label

    def __call__(self, value):
        try:
            return self.run_fn(value)
        except SweepPointError:
            raise
        except Exception as exc:
            raise SweepPointError(
                f"sweep point {self.label}={value!r} failed: "
                f"{type(exc).__name__}: {exc}") from exc


def sweep(values: Sequence, run_fn, label: str = "value",
          workers: int | None = None, progress=None,
          store=None) -> list[dict]:
    """Run ``run_fn(v)`` for each value, collecting metric rows.

    Sweep points are independent, so they are fanned out over worker
    processes when ``run_fn`` is picklable (a module-level function or
    ``functools.partial`` of one); closures fall back to the serial
    loop.  Rows come back in ``values`` order either way.

    A failing sweep point raises :class:`repro.errors.SweepPointError`
    naming the value that broke (in both serial and pool mode).

    Args:
        values: the sweep points.
        run_fn: ``fn(value) -> ExperimentResult``.
        label: column name for the sweep value.
        workers: worker processes; ``None`` defers to ``REPRO_WORKERS``
            then the CPU count; ``1`` forces serial.
        progress: optional ``fn(done, total)`` completion callback.
        store: a :class:`repro.store.ArtifactStore` caching one
            :class:`ExperimentResult` per (run_fn config, value); only
            uncached points execute, and each is stored the moment it
            finishes (:class:`repro.store.ResumableScheduler`), so a
            sweep that fails or is killed keeps every point it
            completed.  ``None`` disables caching (``run_fn`` closures
            cannot be cached -- their config has no canonical
            fingerprint).
    """
    task = _SweepPoint(run_fn, label)
    if store is None:
        results = parallel_map(task, values, workers=workers,
                               chunk_size=1, progress=progress)
    else:
        from ..store import ResumableScheduler, callable_config, fingerprint
        fn_config = callable_config(run_fn)
        keys = [fingerprint({"fn": fn_config, "label": label, "value": v},
                            kind="sweep") for v in values]
        # Scheduler keys must be unique: a repeated value runs once.
        distinct = dict(zip(keys, values))
        report = ResumableScheduler(
            store, fingerprint(list(distinct), kind="sweep-run"),
            kind="sweep",
        ).run(task, distinct.values(), distinct,
              labels=[f"{label}={v!r}" for v in distinct.values()],
              workers=workers, policy=FaultPolicy(retries=0),
              progress=progress)
        if report.failed:
            raise SweepPointError(report.failed[0].error)
        by_key = dict(zip(distinct, report.results))
        results = [by_key[key] for key in keys]
    rows = []
    for v, result in zip(values, results):
        row = {label: v}
        row.update(result.metrics)
        rows.append(row)
    return rows

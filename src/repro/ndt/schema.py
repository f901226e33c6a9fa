"""M-Lab NDT record schema.

M-Lab's NDT (network diagnostic test) archives one row per measurement
with periodic Linux ``TCPInfo`` snapshots.  The paper's §3.1 queries a
month of these rows and keys on a handful of fields; we model exactly
those, with the field set of :class:`repro.tcp.tcp_info.TcpInfoSnapshot`
so records collected from our simulator and records synthesized by
:mod:`repro.ndt.synth` are interchangeable.

A record holds its snapshots as **columns**, one tuple per snapshot
field: the pipeline reads only columns (a throughput series, a last
counter value), and :mod:`repro.ndt.synth` computes each field as one.
Row objects are built on request (:attr:`NdtRecord.snapshots`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import starmap

import numpy as np

from ..errors import AnalysisError
from ..tcp.tcp_info import TcpInfoSnapshot

#: Client access technologies; "cellular" is what §3.1 tries to infer
#: and exclude.
ACCESS_TYPES = ("fiber", "cable", "dsl", "wifi", "cellular", "satellite")

#: ``TcpInfoSnapshot`` field names: the order of :attr:`NdtRecord.columns`.
SNAPSHOT_FIELDS = tuple(f.name for f in fields(TcpInfoSnapshot))
_COLUMN_INDEX = {name: i for i, name in enumerate(SNAPSHOT_FIELDS)}


@dataclass(frozen=True)
class NdtRecord:
    """One NDT measurement (one flow).

    Attributes:
        uuid: measurement identifier.
        duration_s: test duration.
        access_type: client access technology (M-Lab infers this from
            the client network; we carry it as metadata).
        access_rate_bps: provisioned access rate (ground truth in
            synthetic data; unknown, 0, in collected data).
        columns: the TCPInfo snapshot stream, in time order, as one
            tuple per :data:`SNAPSHOT_FIELDS` entry (sequences are
            converted to tuples).
        true_class: hidden ground-truth behaviour label (synthetic data
            only, for validating the pipeline; empty otherwise).
        true_contention: ground truth: did another flow's CCA actually
            contend with this one (synthetic only).
        cca: server-side congestion-control algorithm ("cubic", "bbr",
            ...; M-Lab logs this in the TCPInfo row).  Empty when
            unknown, e.g. records collected before the field existed.
    """

    uuid: str
    duration_s: float
    access_type: str
    access_rate_bps: float
    columns: tuple[tuple, ...]
    true_class: str = ""
    true_contention: bool = False
    cca: str = ""

    def __post_init__(self):
        if self.access_type not in ACCESS_TYPES:
            raise AnalysisError(
                f"unknown access type {self.access_type!r}")
        columns = tuple(map(tuple, self.columns))
        lengths = set(map(len, columns))
        if len(columns) != len(SNAPSHOT_FIELDS) or len(lengths) != 1:
            raise AnalysisError(f"a record needs {len(SNAPSHOT_FIELDS)} "
                                "snapshot columns of one length")
        if lengths.pop() < 2:
            raise AnalysisError("a record needs at least two snapshots")
        object.__setattr__(self, "columns", columns)

    @classmethod
    def from_snapshots(cls, rows, **record_fields) -> "NdtRecord":
        """A record from :class:`TcpInfoSnapshot` rows, in time order."""
        rows = tuple(rows)
        return cls(columns=[[getattr(row, name) for row in rows]
                            for name in SNAPSHOT_FIELDS], **record_fields)

    def column(self, name: str) -> tuple:
        """One snapshot field over time, by ``TcpInfoSnapshot`` name."""
        return self.columns[_COLUMN_INDEX[name]]

    @property
    def n_snapshots(self) -> int:
        return len(self.columns[0])

    @property
    def snapshots(self) -> tuple[TcpInfoSnapshot, ...]:
        """The snapshot rows, built on each access."""
        return tuple(starmap(TcpInfoSnapshot, zip(*self.columns)))

    # -- §3.1 observable fields -------------------------------------------

    @property
    def final(self) -> TcpInfoSnapshot:
        return TcpInfoSnapshot(*(column[-1] for column in self.columns))

    @property
    def app_limited_us(self) -> float:
        """The AppLimited field §3.1 filters on (> 0 means limited)."""
        return self.column("app_limited_us")[-1]

    @property
    def rwnd_limited_us(self) -> float:
        """The RWndLimited field §3.1 filters on."""
        return self.column("rwnd_limited_us")[-1]

    @property
    def mean_throughput_bps(self) -> float:
        elapsed = self.column("elapsed_time_us")[-1] / 1e6
        if elapsed <= 0:
            return 0.0
        return self.column("bytes_acked")[-1] / elapsed

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        """Fields in order; the columns as a ``"snapshots"`` row list."""
        payload = {}
        for f in fields(self):
            if f.name == "columns":
                payload["snapshots"] = [dict(zip(SNAPSHOT_FIELDS, row))
                                        for row in zip(*self.columns)]
            else:
                payload[f.name] = getattr(self, f.name)
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "NdtRecord":
        payload = json.loads(text)
        rows = [TcpInfoSnapshot(**s) for s in payload.pop("snapshots")]
        return cls.from_snapshots(rows, **payload)


def throughput_rows(records) -> np.ndarray:
    """Per-interval throughput (bytes/second) of equally long records,
    one row each, computed over the whole batch at once.

    Raises :class:`AnalysisError` naming the first record whose
    snapshot times do not increase.
    """
    acked = np.array([r.column("bytes_acked") for r in records],
                     dtype=float)
    times = np.array([r.column("elapsed_time_us") for r in records],
                     dtype=float) / 1e6
    dt = np.diff(times, axis=1)
    stalled = (dt <= 0).any(axis=1)
    if stalled.any():
        raise AnalysisError(f"{records[int(stalled.argmax())].uuid}: "
                            "snapshots not increasing")
    return np.diff(acked, axis=1) / dt


@dataclass
class NdtDataset:
    """A collection of NDT records plus provenance."""

    records: list[NdtRecord] = field(default_factory=list)
    description: str = ""

    def __len__(self) -> int:
        return len(self.records)

    def save_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for record in self.records:
                f.write(record.to_json() + "\n")

    @classmethod
    def load_jsonl(cls, path) -> "NdtDataset":
        records = []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    records.append(NdtRecord.from_json(line))
        return cls(records=records)

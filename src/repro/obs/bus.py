"""Structured event-trace bus.

Every instrumented component (links, qdiscs, CCAs, transport endpoints)
emits :class:`TraceEvent` records through one process-global
:class:`TraceBus`.  The bus is *disabled* unless someone subscribes, and
every emission site is guarded by a single attribute check::

    if _OBS.enabled:
        _OBS.emit(now, EventKind.DROP, self.obs_name, packet.flow_id,
                  packet.size)

so the cost with no subscribers is one attribute load and a falsy
branch -- the simulator's hot paths stay hot.

Subscribers are plain callables ``fn(event)``; :func:`capture` collects
events into a list for tests and analysis, :class:`JsonlTraceWriter`
streams them to disk for ``repro trace``.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Mapping, Optional, TextIO


class EventKind:
    """Event-type vocabulary (plain strings so events serialize as-is).

    Queue/link events carry the packet size in ``value``:

    * ``ENQUEUE`` -- a qdisc accepted a packet.
    * ``DEQUEUE`` -- a qdisc handed a packet to the link.
    * ``DROP`` -- a packet was dropped; ``meta["enqueued"]`` tells
      whether it had previously been accepted (AQM/overflow eviction)
      or was refused at admission (tail drop).
    * ``MARK`` -- ECN congestion-experienced mark instead of a drop.
    * ``DELIVER`` -- a link finished serializing a packet downstream.

    Endpoint/CCA events:

    * ``CWND`` -- congestion window update; ``value`` is the window in
      packets, ``meta["pacing_rate"]`` the pacing rate when one is set
      and ``meta["cause"]`` the trigger for loss/RTO cuts.
    * ``RATE`` -- explicit pacing/base-rate change (rate-based CCAs).
    * ``MODE`` -- CCA mode/state switch (the BBR state machine);
      ``meta["from"]``/``meta["to"]`` name the modes.
    * ``PULSE`` -- one Nimbus pulse-phase sample; ``value`` is the
      cross-traffic estimate ẑ for that bin, ``meta["elasticity"]``
      the reading when the bin completed an estimator window.
    * ``LOSS`` / ``RTO`` -- transport loss events.

    Shared-medium (CSMA/CA) events, emitted by
    :class:`~repro.sim.medium.MediumLink` with ``meta["station"]``:

    * ``MEDIUM_DEFER`` -- a station found the medium busy on arrival
      and deferred under the NAV; ``value`` is the remaining busy time.
    * ``MEDIUM_TXOP`` -- a station won the contention round and is
      transmitting alone; ``value`` is the frame size and
      ``meta["duration"]`` the airtime consumed.
    * ``MEDIUM_COLLISION`` -- two or more backoff counters expired in
      the same slot; one event per colliding station, with
      ``meta["duration"]`` (shared airtime) and ``meta["colliders"]``.
    * ``MEDIUM_BACKOFF`` -- a station drew a fresh backoff counter;
      ``value`` is the counter, ``meta["cw"]`` the window it came from.

    Engine events:

    * ``SIM_START`` -- a new :class:`~repro.sim.engine.Simulator` was
      created (resets per-run invariant state).
    * ``SIM_RUN`` -- one ``run()`` call started or completed;
      ``meta["phase"]`` is "begin" or "end", and the end event's
      ``value`` is the number of callbacks executed.
    """

    ENQUEUE = "enqueue"
    DEQUEUE = "dequeue"
    DROP = "drop"
    MARK = "mark"
    DELIVER = "deliver"
    CWND = "cwnd"
    RATE = "rate"
    MODE = "mode"
    PULSE = "pulse"
    LOSS = "loss"
    RTO = "rto"
    MEDIUM_DEFER = "medium.defer"
    MEDIUM_TXOP = "medium.txop"
    MEDIUM_COLLISION = "medium.collision"
    MEDIUM_BACKOFF = "medium.backoff"
    SIM_START = "sim_start"
    SIM_RUN = "sim_run"

    #: kinds participating in queue byte-conservation accounting
    QUEUE_KINDS = frozenset({ENQUEUE, DEQUEUE, DROP})

    #: kinds emitted by the shared-medium MAC layer
    MEDIUM_KINDS = frozenset({MEDIUM_DEFER, MEDIUM_TXOP,
                              MEDIUM_COLLISION, MEDIUM_BACKOFF})


class TraceEvent:
    """One structured trace record.

    Attributes:
        time: simulation time of the event (seconds).
        kind: one of the :class:`EventKind` constants.
        src: emitting component ("qdisc:droptailqueue-3", "link:bottleneck",
            "cca:reno", "tcp:flow-1", "sim").
        flow: flow id the event concerns ("" when not flow-scoped).
        value: the event's primary scalar (packet size, cwnd, ...).
        meta: optional small mapping of extra fields.
    """

    __slots__ = ("time", "kind", "src", "flow", "value", "meta")

    def __init__(self, time: float, kind: str, src: str, flow: str = "",
                 value: float = 0.0,
                 meta: Optional[Mapping] = None):
        self.time = time
        self.kind = kind
        self.src = src
        self.flow = flow
        self.value = value
        self.meta = meta

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the JSONL writer)."""
        d = {"t": self.time, "kind": self.kind, "src": self.src}
        if self.flow:
            d["flow"] = self.flow
        if self.value:
            d["value"] = self.value
        if self.meta:
            d["meta"] = dict(self.meta)
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceEvent t={self.time:.6f} {self.kind} {self.src}"
                f"{' ' + self.flow if self.flow else ''} {self.value}>")


Subscriber = Callable[[TraceEvent], None]


class TraceBus:
    """Fan-out point for trace events.

    ``enabled`` mirrors "has at least one subscriber"; emission sites
    check it before building the event object, so a disabled bus costs
    nothing but the check.
    """

    __slots__ = ("enabled", "_subscribers")

    def __init__(self):
        self.enabled = False
        self._subscribers: list[Subscriber] = []

    def subscribe(self, fn: Subscriber) -> None:
        """Register ``fn(event)``; enables the bus."""
        if fn not in self._subscribers:
            self._subscribers.append(fn)
        self.enabled = True

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove a subscriber; disables the bus when none remain."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass
        self.enabled = bool(self._subscribers)

    def emit(self, time: float, kind: str, src: str, flow: str = "",
             value: float = 0.0, meta: Optional[Mapping] = None) -> None:
        """Deliver one event to every subscriber."""
        event = TraceEvent(time, kind, src, flow, value, meta)
        for fn in self._subscribers:
            fn(event)


#: The process-global bus every instrumented component emits into.
BUS = TraceBus()


class capture:
    """Context manager collecting events into :attr:`events`.

    >>> from repro.obs.bus import BUS, EventKind, capture
    >>> with capture() as trace:
    ...     BUS.emit(0.5, EventKind.DROP, "qdisc:q", "f1", 1500)
    >>> [(e.kind, e.flow) for e in trace.events]
    [('drop', 'f1')]
    """

    def __init__(self):
        self.events: list[TraceEvent] = []

    def _collect(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __enter__(self) -> "capture":
        BUS.subscribe(self._collect)
        return self

    def __exit__(self, *exc) -> bool:
        BUS.unsubscribe(self._collect)
        return False

    def counts_by_kind(self) -> dict[str, int]:
        """Event counts per kind (the golden-trace digest input)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))


class JsonlTraceWriter:
    """Stream events to a JSONL file (one event per line).

    Use as a context manager so the file is flushed and closed; pairs
    with ``repro trace <experiment> --out trace.jsonl``.
    """

    def __init__(self, path, kinds: Optional[Iterable[str]] = None):
        self.path = path
        self.count = 0
        self.counts: dict[str, int] = {}
        self._kinds = frozenset(kinds) if kinds is not None else None
        self._file: Optional[TextIO] = None

    def _write(self, event: TraceEvent) -> None:
        if self._kinds is not None and event.kind not in self._kinds:
            return
        assert self._file is not None
        self._file.write(json.dumps(event.to_dict()) + "\n")
        self.count += 1
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1

    def __enter__(self) -> "JsonlTraceWriter":
        self._file = open(self.path, "w")
        BUS.subscribe(self._write)
        return self

    def __exit__(self, *exc) -> bool:
        BUS.unsubscribe(self._write)
        if self._file is not None:
            self._file.close()
            self._file = None
        return False

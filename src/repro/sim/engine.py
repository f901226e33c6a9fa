"""Discrete-event simulation engine.

A minimal but fast event loop: callbacks are scheduled at absolute times
and executed in timestamp order (FIFO among equal timestamps).  All other
simulation components -- links, queues, transport endpoints, applications
-- are written against this engine.

Two scheduling families exist.  :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` return an :class:`Event` handle that can
be cancelled; :meth:`Simulator.call_later` / :meth:`Simulator.call_at`
are the never-cancelled fast path -- they push a bare callback with no
handle allocation, which matters because the overwhelming majority of
events (propagation arrivals, pacing ticks) are never cancelled.  A
handle can also be moved: :meth:`Simulator.reschedule` gives it the
key a cancel followed by a ``schedule`` would, but pushes nothing when
the deadline moves later (a retransmission timer restarted on every
ACK).

A component may apply its own work lazily, at the virtual timestamp
it was due, when something next touches it (a :class:`~repro.sim.link.Link`
applies its transmission completions so).  It registers with
:meth:`Simulator.add_settler` so every :meth:`Simulator.run` ends with
its state current, and while the trace bus is on it asks for a
:meth:`Simulator.wake_at` at each due time, so the trace stays in time
order.  A wake is not an event: it is not counted, and a traced run
executes exactly the events an untraced one does.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from ..errors import SimulationError
from ..obs import invariants as _invariants
from ..obs.bus import BUS as _OBS, EventKind
from ..obs.metrics import REGISTRY as _METRICS

#: Delays more negative than this raise; anything in (-_EPSILON, 0) is
#: floating-point residue from rate arithmetic (e.g. ``bytes/rate -
#: elapsed`` landing at -1e-18) and is clamped to "now".
_EPSILON = 1e-9

#: The fourth slot of a :meth:`Simulator.wake_at` entry: runs at its
#: time like an event, but is never counted as one.
_WAKE = object()


class Event:
    """Handle for a scheduled callback; supports cancellation.

    Heap entries are ``(time, seq, callback, event_or_None)`` tuples so
    ordering is decided by C-level float/int comparison; ``seq`` is
    unique, so later elements are never compared.  The fourth slot is
    None for the fast path (:meth:`Simulator.call_later`), which never
    allocates a handle at all, and ``_WAKE`` for an uncounted wake.

    ``(time, seq)`` is the current key; ``filed`` says whether it has an
    entry yet (a moved event may not).  ``cancelled`` is also set once
    the callback runs, so a fired handle is neither revived nor counted.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "filed")

    def __init__(self, time: float, seq: int, callback: Callable[[], Any]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.filed = True

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly."""
        self.cancelled = True


class Simulator:
    """Event-driven simulation clock.

    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(1.0, lambda: out.append(sim.now))
    >>> sim.run(until=2.0)
    >>> out
    [1.0]
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self._settlers: list[Callable[[], Any]] = []
        # Opt-in runtime auditing: REPRO_CHECK_INVARIANTS=1 attaches
        # strict trace-driven invariant checkers (idempotent, and a
        # no-op without the env var).
        _invariants.maybe_install_from_env()
        if _OBS.enabled:
            _OBS.emit(0.0, EventKind.SIM_START, "sim")

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Run ``callback`` ``delay`` seconds from now.

        Delays negative only by floating-point error (above
        ``-_EPSILON``) are clamped to zero; genuinely negative delays
        raise :class:`SimulationError`.
        """
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Event:
        """Run ``callback`` at absolute simulation time ``time``."""
        if time < self.now:
            if time <= self.now - _EPSILON:
                raise SimulationError(
                    f"cannot schedule at {time} (now is {self.now})")
            time = self.now
        seq = next(self._seq)
        event = Event(time, seq, callback)
        heapq.heappush(self._heap, (time, seq, callback, event))
        return event

    def reschedule(self, event: Event, delay: float) -> None:
        """Move a pending ``event`` to ``delay`` seconds from now, with
        the key cancel-then-:meth:`schedule` would give it: the next
        sequence number is drawn now, not when an entry is filed.  A
        later deadline pushes nothing; the queued entry surfaces first
        and is re-filed under the current key."""
        if event.cancelled:
            raise SimulationError("cannot move a fired or cancelled event")
        if delay <= -_EPSILON:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        time = self.now + delay if delay > 0 else self.now
        seq = next(self._seq)
        event.filed = time < event.time
        if event.filed:
            heapq.heappush(self._heap, (time, seq, event.callback, event))
        event.time, event.seq = time, seq

    def call_later(self, delay: float, callback: Callable[[], Any]) -> None:
        """Fast path: like :meth:`schedule` but with no cancellation
        handle (and no per-event allocation beyond the heap tuple).
        Kept on measurement (PR 24, DESIGN.md §3): as an alias of
        ``schedule`` it costs ``paths_packet`` +3.8 % (357.5 -> 371.2
        ms/path over 15 interleaved pairs, this lower in 13)."""
        if delay < 0:
            if delay <= -_EPSILON:
                raise SimulationError(
                    f"cannot schedule in the past: {delay!r}")
            delay = 0.0
        heapq.heappush(self._heap,
                       (self.now + delay, next(self._seq), callback, None))

    def call_at(self, time: float, callback: Callable[[], Any]) -> None:
        """Fast path: like :meth:`schedule_at` but with no handle."""
        if time < self.now:
            if time <= self.now - _EPSILON:
                raise SimulationError(
                    f"cannot schedule at {time} (now is {self.now})")
            time = self.now
        heapq.heappush(self._heap,
                       (time, next(self._seq), callback, None))

    def wake_at(self, time: float, callback: Callable[[], Any]) -> None:
        """Run ``callback`` at ``time`` without counting an event.

        For a lazy component that must act in time order while traced:
        the callback may only bring its owner's state up to ``time``
        (no scheduling that an untraced run would not do at that
        moment), so the run stays the one an untraced run executes."""
        heapq.heappush(self._heap, (time, next(self._seq), callback, _WAKE))

    def add_settler(self, settle: Callable[[], Any]) -> None:
        """Call ``settle()`` at the end of every :meth:`run`, after the
        clock is set, so a lazy component's state is current when read."""
        self._settlers.append(settle)

    # -- execution -------------------------------------------------------

    def _passed_over(self, seq: int, event: Event) -> bool:
        """Whether a popped handle entry must not run.  Re-files a moved
        event under its current key if that has no entry yet."""
        if event.cancelled:
            return True
        if seq == event.seq:
            event.cancelled = True  # fired: stale entries drop, no revival
            return False
        if not event.filed:
            event.filed = True
            heapq.heappush(self._heap, (event.time, event.seq,
                                        event.callback, event))
        return True

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        while self._heap:
            time, seq, callback, event = heapq.heappop(self._heap)
            if event is not None:
                if event is _WAKE:
                    self.now = time
                    callback()
                    continue
                if self._passed_over(seq, event):
                    continue
            self.now = time
            callback()
            self._events_processed += 1
            return True
        return False

    def run(self, until: float | None = None) -> None:
        """Run until the event queue drains or the clock passes ``until``.

        When ``until`` is given the clock is left exactly at ``until`` so
        that post-run measurements have a well-defined end time.
        """
        if self._running:
            raise SimulationError("run() re-entered from a callback")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        if _OBS.enabled:
            _OBS.emit(self.now, EventKind.SIM_RUN, "sim",
                      meta={"phase": "begin"})
        limit = float("inf") if until is None else until
        try:
            while heap:
                entry = pop(heap)
                time, seq, callback, event = entry
                if time > limit:
                    heapq.heappush(heap, entry)  # same (time, seq): same place
                    break
                if event is not None:
                    if event is _WAKE:
                        self.now = time
                        callback()
                        continue
                    if self._passed_over(seq, event):
                        continue
                self.now = time
                callback()
                executed += 1
            if until is not None and until > self.now:
                self.now = until
            for settle in self._settlers:
                settle()
        finally:
            self._running = False
            self._events_processed += executed
            _METRICS.counter("sim.events_processed").inc(executed)
            _METRICS.counter("sim.runs").inc()
            _METRICS.gauge("sim.clock_s").set(self.now)
            if _OBS.enabled:
                _OBS.emit(self.now, EventKind.SIM_RUN, "sim",
                          value=float(executed), meta={"phase": "end"})

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far (a :meth:`run` in
        progress adds its own when it returns)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of heap entries still queued.

        This counts entries that will never run -- a cancelled or fired
        event's, or one a moved timer left -- since they are dropped
        lazily at dispatch (removal from a heap's middle is O(n)).  Use
        :attr:`pending_active` for the number of events that will run.
        """
        return len(self._heap)

    @property
    def pending_active(self) -> int:
        """Number of callbacks that will still run (events, and a traced
        run's wakes), each counted once by its current key however many
        entries it holds.

        O(pending): walks the heap, so prefer :attr:`pending` in hot
        paths where the distinction does not matter.
        """
        return (sum(1 for entry in self._heap
                    if entry[3] is None or entry[3] is _WAKE)
                + len({e for *_, e in self._heap
                       if e and e is not _WAKE and not e.cancelled}))

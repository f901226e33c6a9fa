"""Trace-driven invariant checkers.

Five invariants every healthy simulation must satisfy:

* **Monotonic clock** -- event timestamps never go backwards within one
  simulator's lifetime.
* **Non-negative queues** -- no qdisc ever dequeues or drops more
  packets than it accepted.
* **Byte conservation** -- per qdisc, enqueued bytes equal dequeued
  bytes plus dropped bytes plus the bytes still queued (checked online
  as "residual never negative", and exactly at finalization against the
  qdisc's actual occupancy).
* **Cwnd bounds** -- every congestion-window update stays finite and
  within sane bounds.
* **Medium state** -- on a shared (CSMA/CA) medium, successful
  transmissions never overlap and consumed airtime never exceeds
  wall-clock time in any window.

The checkers consume :class:`~repro.obs.bus.TraceEvent` streams, so the
same code runs in three modes:

1. **Tests** -- record a trace with :class:`~repro.obs.bus.capture` and
   call :func:`check_trace` on the collected events.
2. **Runtime assertions** -- set ``REPRO_CHECK_INVARIANTS=1`` and every
   :class:`~repro.sim.engine.Simulator` installs strict online checkers
   that raise :class:`~repro.errors.InvariantViolation` at the exact
   event that breaks an invariant.
3. **Ad hoc** -- feed any stored JSONL trace back through the checkers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..errors import InvariantViolation
from .bus import BUS, EventKind, TraceBus, TraceEvent

#: Environment variable enabling strict runtime checking.
ENV_CHECK = "REPRO_CHECK_INVARIANTS"


@dataclass(frozen=True)
class Violation:
    """One invariant failure found in a trace."""

    invariant: str
    time: float
    src: str
    message: str

    def __str__(self) -> str:
        return (f"[{self.invariant}] t={self.time:.6f} {self.src}: "
                f"{self.message}")


class InvariantChecker:
    """Base: observe events, collect violations, optionally raise."""

    name = "invariant"

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.violations: list[Violation] = []

    def observe(self, event: TraceEvent) -> None:
        """Feed one event through the checker."""

    def finalize(self) -> None:
        """Run end-of-trace checks (override where meaningful)."""

    @property
    def ok(self) -> bool:
        return not self.violations

    def _fail(self, time: float, src: str, message: str) -> None:
        violation = Violation(self.name, time, src, message)
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolation(str(violation))


class MonotonicClockChecker(InvariantChecker):
    """Event timestamps never decrease (per simulator lifetime).

    Args:
        gate_to_runs: only check events emitted between a ``SIM_RUN``
            begin and end marker, each run against a floor that starts
            at its begin marker's time.  The runtime assertion mode uses
            this: once checkers are installed process-wide, unit tests
            that drive a CCA or qdisc directly at hand-picked times
            (with no simulator clock at all), or run two simulators in
            turns, would otherwise read as clock regressions.  Offline
            :func:`check_trace` leaves the gate off and checks every
            event.
    """

    name = "monotonic_clock"

    def __init__(self, strict: bool = False, gate_to_runs: bool = False):
        super().__init__(strict)
        self._last = float("-inf")
        self._gated = gate_to_runs
        self._active = not gate_to_runs

    def observe(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == EventKind.SIM_START:
            # A fresh simulator legitimately restarts the clock at 0.
            self._last = float("-inf")
            return
        if kind == EventKind.SIM_RUN and self._gated:
            self._active = (event.meta or {}).get("phase") == "begin"
            if self._active:
                # A run starts at its own simulator's clock, which may
                # be behind the last run's if that was another
                # simulator's.
                self._last = event.time
        if not self._active:
            return
        if event.time < self._last - 1e-12:
            self._fail(event.time, event.src,
                       f"clock went backwards: {event.time} after "
                       f"{self._last}")
        elif event.time > self._last:
            self._last = event.time


class _QueueAccounting(InvariantChecker):
    """Shared per-src enqueue/dequeue/drop bookkeeping.

    Only drops of previously *enqueued* packets (AQM head drops,
    longest-queue eviction) deplete the residual; admission refusals
    never entered the queue.
    """

    def __init__(self, strict: bool = False):
        super().__init__(strict)
        self.enq: dict[str, float] = {}
        self.deq: dict[str, float] = {}
        self.dropped: dict[str, float] = {}

    def _amount(self, event: TraceEvent) -> float:
        raise NotImplementedError

    def _unit(self) -> str:
        raise NotImplementedError

    def residual(self, src: str) -> float:
        """Amount the trace says should still be queued at ``src``."""
        return (self.enq.get(src, 0.0) - self.deq.get(src, 0.0)
                - self.dropped.get(src, 0.0))

    def observe(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == EventKind.SIM_START:
            # Qdisc identities are unique per instance, so a new
            # simulator cannot collide with old keys; clearing just
            # bounds memory over long campaigns.
            self.enq.clear()
            self.deq.clear()
            self.dropped.clear()
            return
        if kind not in EventKind.QUEUE_KINDS:
            return
        src = event.src
        amount = self._amount(event)
        if amount < 0:
            self._fail(event.time, src,
                       f"negative {self._unit()} amount: {amount}")
            return
        if kind == EventKind.ENQUEUE:
            self.enq[src] = self.enq.get(src, 0.0) + amount
            return
        if kind == EventKind.DEQUEUE:
            self.deq[src] = self.deq.get(src, 0.0) + amount
        elif kind == EventKind.DROP:
            if not (event.meta or {}).get("enqueued"):
                return  # refused at admission; never occupied the queue
            self.dropped[src] = self.dropped.get(src, 0.0) + amount
        if self.residual(src) < 0:
            self._fail(event.time, src,
                       f"queue went negative: {self._unit()} residual "
                       f"{self.residual(src)} after {kind}")


class QueueNonNegativeChecker(_QueueAccounting):
    """Packet counts: a queue never holds a negative number of packets."""

    name = "queue_non_negative"

    def _amount(self, event: TraceEvent) -> float:
        return 1.0

    def _unit(self) -> str:
        return "packet"

    def verify_final(self, qdiscs: Iterable) -> None:
        """Cross-check trace residuals against live qdisc occupancy."""
        for qdisc in qdiscs:
            src = qdisc.obs_name
            if self.residual(src) != len(qdisc):
                self._fail(float("inf"), src,
                           f"trace residual {self.residual(src)} packets "
                           f"!= actual occupancy {len(qdisc)}")


class ByteConservationChecker(_QueueAccounting):
    """enqueued bytes == dequeued + dropped-after-enqueue + residual."""

    name = "byte_conservation"

    def _amount(self, event: TraceEvent) -> float:
        return event.value

    def _unit(self) -> str:
        return "byte"

    def verify_final(self, qdiscs: Iterable) -> None:
        """Cross-check trace residuals against live qdisc byte counts."""
        for qdisc in qdiscs:
            src = qdisc.obs_name
            if self.residual(src) != qdisc.byte_length:
                self._fail(float("inf"), src,
                           f"trace residual {self.residual(src)} bytes "
                           f"!= actual byte_length {qdisc.byte_length}")


class CwndBoundsChecker(InvariantChecker):
    """Congestion windows stay finite and inside [min_cwnd, max_cwnd].

    The defaults are sanity bounds, not per-CCA policy: an RTO may
    legitimately collapse a window to one packet, and the non-reactive
    CBR sender advertises an effectively unlimited 1e9-packet window.
    """

    name = "cwnd_bounds"

    def __init__(self, strict: bool = False, min_cwnd: float = 0.5,
                 max_cwnd: float = 2e9):
        super().__init__(strict)
        self.min_cwnd = min_cwnd
        self.max_cwnd = max_cwnd

    def observe(self, event: TraceEvent) -> None:
        if event.kind != EventKind.CWND:
            return
        cwnd = event.value
        if not math.isfinite(cwnd):
            self._fail(event.time, event.src,
                       f"cwnd not finite: {cwnd} (flow {event.flow})")
        elif not self.min_cwnd <= cwnd <= self.max_cwnd:
            self._fail(event.time, event.src,
                       f"cwnd {cwnd} outside [{self.min_cwnd}, "
                       f"{self.max_cwnd}] (flow {event.flow})")


class MediumChecker(InvariantChecker):
    """Shared-medium MAC sanity, per medium source.

    Two invariants over ``medium.txop`` / ``medium.collision`` events
    (both carry ``meta["duration"]``, the airtime the event consumed):

    * **At most one successful transmitter at a time** -- a ``txop``
      may not start before the previous ``txop``'s airtime has ended.
      Collisions are exempt: their events are deliberately concurrent.
    * **Airtime sums to <= 1 per window** -- within every
      ``WINDOW``-second window, the airtime consumed (successful
      transmissions summed exactly; collision airtime counted once per
      collision, not once per collider) never exceeds the window.
    """

    name = "medium_state"

    #: airtime accounting window (seconds)
    WINDOW = 1.0

    def __init__(self, strict: bool = False):
        super().__init__(strict)
        self._txop_end: dict[str, float] = {}
        self._busy_end: dict[str, float] = {}
        self._windows: dict[str, dict[int, float]] = {}

    def _reset(self) -> None:
        self._txop_end.clear()
        self._busy_end.clear()
        self._windows.clear()

    def _add_airtime(self, event: TraceEvent, src: str, start: float,
                     end: float) -> None:
        """Charge ``[start, end)`` to per-window airtime and check."""
        windows = self._windows.setdefault(src, {})
        w = int(start // self.WINDOW)
        while start < end - 1e-12:
            edge = (w + 1) * self.WINDOW
            piece = min(end, edge) - start
            total = windows.get(w, 0.0) + piece
            windows[w] = total
            if total > self.WINDOW + 1e-6:
                self._fail(event.time, src,
                           f"airtime {total:.6f}s in window {w} exceeds "
                           f"{self.WINDOW}s: the medium is over-granted")
                return
            start = edge
            w += 1

    def observe(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == EventKind.SIM_START:
            self._reset()
            return
        if kind not in (EventKind.MEDIUM_TXOP, EventKind.MEDIUM_COLLISION):
            return
        src = event.src
        t = event.time
        duration = float((event.meta or {}).get("duration", 0.0))
        if duration < 0:
            self._fail(t, src, f"negative airtime duration: {duration}")
            return
        if kind == EventKind.MEDIUM_TXOP:
            last_end = self._txop_end.get(src, float("-inf"))
            if t < last_end - 1e-9:
                self._fail(t, src,
                           f"overlapping successful transmissions: txop "
                           f"at {t:.6f} before previous ends at "
                           f"{last_end:.6f}")
            self._txop_end[src] = max(last_end, t + duration)
            # Successful txops must be disjoint, so their durations sum
            # exactly; charging the raw duration makes a double-grant
            # show up as airtime > window.
            self._add_airtime(event, src, t, t + duration)
            self._busy_end[src] = max(self._busy_end.get(src, 0.0),
                                      t + duration)
        else:
            # One collision emits an event per collider over the same
            # airtime; the busy-end clamp charges that airtime once.
            begin = max(t, self._busy_end.get(src, float("-inf")))
            end = t + duration
            if end > begin:
                self._add_airtime(event, src, begin, end)
                self._busy_end[src] = end


def all_checkers(strict: bool = False, min_cwnd: float = 0.5,
                 max_cwnd: float = 2e9,
                 gate_clock_to_runs: bool = False) -> list[InvariantChecker]:
    """One instance of each of the five invariant checkers."""
    return [
        MonotonicClockChecker(strict, gate_to_runs=gate_clock_to_runs),
        QueueNonNegativeChecker(strict),
        ByteConservationChecker(strict),
        CwndBoundsChecker(strict, min_cwnd=min_cwnd, max_cwnd=max_cwnd),
        MediumChecker(strict),
    ]


def check_trace(events: Sequence[TraceEvent], qdiscs: Iterable = (),
                min_cwnd: float = 0.5,
                max_cwnd: float = 2e9) -> list[Violation]:
    """Run all five invariant checkers over a recorded trace.

    Args:
        events: the trace, in emission order.
        qdiscs: live qdisc objects to cross-check final conservation
            residuals against (optional but recommended in tests).

    Returns:
        Every violation found (empty list = all invariants hold).
    """
    checkers = all_checkers(strict=False, min_cwnd=min_cwnd,
                            max_cwnd=max_cwnd)
    for event in events:
        for checker in checkers:
            checker.observe(event)
    qdiscs = list(qdiscs)
    for checker in checkers:
        checker.finalize()
        if qdiscs and isinstance(checker, _QueueAccounting):
            checker.verify_final(qdiscs)
    return [v for checker in checkers for v in checker.violations]


def assert_no_violations(events: Sequence[TraceEvent],
                         qdiscs: Iterable = ()) -> None:
    """Assert a trace is invariant-clean, reporting every violation.

    Raises :class:`~repro.errors.InvariantViolation` with *all*
    violations in the message (not just the first), which is what a
    failing property test should show.
    """
    violations = check_trace(events, qdiscs=qdiscs)
    if violations:
        details = "\n".join(str(v) for v in violations)
        raise InvariantViolation(
            f"{len(violations)} invariant violation(s):\n{details}")


# -- runtime assertion mode (REPRO_CHECK_INVARIANTS=1) -------------------

_runtime_checkers: Optional[list[InvariantChecker]] = None


def runtime_checks_requested() -> bool:
    """Whether the environment asks for strict runtime invariants."""
    return os.environ.get(ENV_CHECK, "").lower() in ("1", "true", "yes",
                                                     "on")


def install_runtime_checks(bus: TraceBus = BUS) -> bool:
    """Subscribe strict checkers to ``bus`` (idempotent per process).

    Returns True when this call performed the installation.
    """
    global _runtime_checkers
    if _runtime_checkers is not None:
        return False
    checkers = all_checkers(strict=True, gate_clock_to_runs=True)

    def _observe_all(event: TraceEvent) -> None:
        for checker in checkers:
            checker.observe(event)

    bus.subscribe(_observe_all)
    _runtime_checkers = checkers
    return True


def maybe_install_from_env(bus: TraceBus = BUS) -> bool:
    """Install strict runtime checkers when the env var asks for them.

    Called from ``Simulator.__init__`` so that merely setting
    ``REPRO_CHECK_INVARIANTS=1`` turns every simulation in the process
    (tests, experiments, pool workers) into an invariant audit.
    """
    if not runtime_checks_requested():
        return False
    return install_runtime_checks(bus)

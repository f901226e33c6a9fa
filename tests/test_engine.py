"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import PathSpec
from repro.core.path import build_packet_path
from repro.errors import SimulationError
from repro.obs.metrics import REGISTRY
from repro.sim.engine import Simulator


def test_starts_at_time_zero():
    assert Simulator().now == 0.0


def test_runs_callback_at_scheduled_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_run_fifo():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.schedule(1.0, lambda lab=label: order.append(lab))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run(until=2.5)
    assert sim.now == 2.5
    assert sim.pending == 1


def test_pending_counts_cancelled_but_pending_active_skips_them():
    # Regression for the pending-vs-cancelled mismatch: `pending` is a
    # raw heap size (cancelled entries are only removed lazily), while
    # `pending_active` reports what will actually run.
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    assert (sim.pending, sim.pending_active) == (2, 2)
    drop.cancel()
    assert sim.pending == 2          # lazy removal: entry still queued
    assert sim.pending_active == 1   # but it will never run
    drop.cancel()                    # idempotent
    assert sim.pending_active == 1
    moved = sim.schedule(3.0, lambda: None)
    sim.reschedule(moved, 0.5)       # earlier: a second entry, one event
    assert (sim.pending, sim.pending_active) == (4, 2)
    sim.reschedule(moved, 4.0)       # later: nothing pushed
    assert (sim.pending, sim.pending_active) == (4, 2)
    keep.cancel()
    moved.cancel()
    assert sim.pending_active == 0
    sim.run()
    assert (sim.pending, sim.pending_active) == (0, 0)
    assert sim.events_processed == 0


def test_run_until_resumes():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run(until=2.5)
    assert seen == []
    sim.run(until=10.0)
    assert seen == [5.0]


def test_callbacks_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def tick():
        seen.append(sim.now)
        if sim.now < 3.0:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run()
    assert seen == [1.0, 2.0, 3.0]


def test_cancelled_event_does_not_run():
    sim = Simulator()
    seen = []
    event = sim.schedule(1.0, lambda: seen.append("x"))
    event.cancel()
    sim.run()
    assert seen == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_step_executes_single_event():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1))
    sim.schedule(2.0, lambda: seen.append(2))
    assert sim.step() is True
    assert seen == [1]
    assert sim.step() is True
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_run_accounting_survives_a_registry_reset():
    sim = Simulator()
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    sim.run(until=1.5)
    REGISTRY.reset()
    sim.run()
    snap = REGISTRY.snapshot()
    assert snap["sim.runs"]["value"] == 1
    assert snap["sim.events_processed"]["value"] == 2
    assert snap["sim.clock_s"]["value"] == 3.0


def test_reentrant_run_rejected():
    sim = Simulator()

    def naughty():
        sim.run()

    sim.schedule(1.0, naughty)
    with pytest.raises(SimulationError):
        sim.run()


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_property_execution_order_is_sorted(delays):
    sim = Simulator()
    times = []
    for d in delays:
        sim.schedule(d, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


@given(st.lists(st.floats(min_value=0.001, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=30),
       st.integers(min_value=0, max_value=29))
def test_property_cancellation_removes_exactly_one(delays, cancel_idx):
    sim = Simulator()
    count = [0]
    events = [sim.schedule(d, lambda: count.__setitem__(0, count[0] + 1))
              for d in delays]
    events[cancel_idx % len(events)].cancel()
    sim.run()
    assert count[0] == len(delays) - 1


# -- float-noise clamping ---------------------------------------------------

def test_tiny_negative_delay_clamps_to_now():
    # A delay negative only by floating-point error (e.g. computing
    # `next_tx - now` after accumulating rounding) schedules at `now`
    # instead of raising.
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule(-1e-12,
                                           lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [1.0]


def test_genuinely_negative_delay_still_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1e-6, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_later(-1e-6, lambda: None)


def test_call_at_tiny_past_clamps():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.call_at(1.0 - 1e-12,
                                          lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [1.0]


# -- the handle-free fast path ---------------------------------------------

def test_call_later_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.call_later(2.0, lambda: order.append("b"))
    sim.call_later(1.0, lambda: order.append("a"))
    sim.call_at(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.events_processed == 3


def test_call_later_interleaves_fifo_with_schedule():
    # Both scheduling families share one sequence counter, so ties
    # between them still run in submission order.
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("ev1"))
    sim.call_later(1.0, lambda: order.append("cb1"))
    sim.schedule(1.0, lambda: order.append("ev2"))
    sim.call_later(1.0, lambda: order.append("cb2"))
    sim.run()
    assert order == ["ev1", "cb1", "ev2", "cb2"]


def test_call_later_counts_as_pending_active():
    sim = Simulator()
    sim.call_later(1.0, lambda: None)
    assert (sim.pending, sim.pending_active) == (1, 1)
    sim.run()
    assert (sim.pending, sim.pending_active) == (0, 0)


# -- moving a handle ---------------------------------------------------------

def test_a_moved_timer_is_filed_once():
    sim = Simulator()
    timer = sim.schedule(2.0, lambda: None)
    sim.reschedule(timer, 1.0)       # earlier: a second entry
    sim.reschedule(timer, 3.0)       # later: nothing pushed
    sim.run(until=2.5)               # 1.0 re-files it, 2.0 is dropped
    assert (sim.pending, sim.pending_active, sim.events_processed) == (1, 1, 0)
    sim.run()
    assert (sim.now, sim.events_processed) == (3.0, 1)


def test_reschedule_refuses_a_fired_or_cancelled_event():
    sim = Simulator()
    fired = sim.schedule(1.0, lambda: None)
    cancelled = sim.schedule(2.0, lambda: None)
    cancelled.cancel()
    sim.run()
    for event in (fired, cancelled):
        with pytest.raises(SimulationError):
            sim.reschedule(event, 1.0)
    assert (sim.pending, sim.events_processed) == (0, 1)


def test_restarted_rto_leaves_at_most_one_stale_entry_per_sender():
    # reno-droptail from the perf ledger: the probe and one Reno flow.
    # Re-filing the RTO on every ACK left 331 dead entries here.
    spec = PathSpec(cross_traffic="reno", qdisc="droptail", rate_mbps=20.0,
                    rtt_ms=50.0, buffer_multiplier=1.0, seed=20230)
    handles, sources = build_packet_path(spec)
    handles.sim.run(until=3.0)
    senders = {source.connection.sender for source in sources.values()}
    assert len(senders) == 2
    assert handles.sim.pending - handles.sim.pending_active <= len(senders)


#: Multiples of 1/4 add exactly, so moves land in real ties.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 2.0])
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("call_later"), _DELAYS),
    st.tuples(st.just("reschedule"), st.integers(0, 15),
              _DELAYS | st.just("same")),
    st.tuples(st.just("cancel"), st.integers(0, 15)))
_SPLITS = st.tuples(st.just("split"), st.integers(0, 4))


class _Program:
    """Runs engine calls from a generated program.  With ``moved`` a
    ``reschedule`` op calls :meth:`Simulator.reschedule`; without, it
    cancels the handle and schedules its callback anew -- what a move
    must be indistinguishable from.  Event ``label`` runs
    ``reactions[label]`` when it fires, so moves also happen inside
    :meth:`Simulator.run`."""

    MAX_EVENTS = 40

    def __init__(self, moved: bool, reactions):
        self.sim = Simulator()
        self.moved = moved
        self.reactions = reactions
        self.handles = []
        self.live = []
        self.trace = []
        self.labels = 0

    def _callback(self, index):
        label = self.labels
        self.labels += 1

        def fire():
            if index is not None:
                self.live[index] = False
            self.trace.append((label, self.sim.now))
            for op in (self.reactions[label]
                       if label < len(self.reactions) else ()):
                self.apply(op)
        return fire

    def apply(self, op) -> None:
        sim, kind = self.sim, op[0]
        if kind in ("schedule", "call_later"):
            if self.labels >= self.MAX_EVENTS:
                return
            if kind == "call_later":
                sim.call_later(op[1], self._callback(None))
                return
            self.live.append(True)
            self.handles.append(
                sim.schedule(op[1], self._callback(len(self.live) - 1)))
            return
        if not self.handles:
            return
        index = op[1] % len(self.handles)
        event = self.handles[index]
        if kind == "cancel":
            event.cancel()
            self.live[index] = False
        elif not self.live[index]:
            if self.moved:
                with pytest.raises(SimulationError):
                    sim.reschedule(event, 0.0)
        else:
            delay = event.time - sim.now if op[2] == "same" else op[2]
            if self.moved:
                sim.reschedule(event, delay)
            else:
                event.cancel()
                self.handles[index] = sim.schedule(delay, event.callback)

    def drive(self, program, by_step: bool):
        sim = self.sim
        active = []
        for op in program:
            if op[0] != "split":
                self.apply(op)
                continue
            if by_step:
                for _ in range(op[1]):
                    sim.step()
            else:
                sim.run(until=sim.now + 0.25 * op[1])
            active.append(sim.pending_active)
        if by_step:
            while sim.step():
                pass
        else:
            sim.run()
        return self.trace, sim.events_processed, active


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS | _SPLITS, max_size=30),
       st.lists(st.lists(_OPS, max_size=3), max_size=_Program.MAX_EVENTS))
def test_property_reschedule_equals_cancel_then_schedule(program, reactions):
    for by_step in (False, True):
        moved = _Program(True, reactions).drive(program, by_step)
        assert moved == _Program(False, reactions).drive(program, by_step)

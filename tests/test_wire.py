"""The ACK path's :class:`~repro.sim.link.Wire` is the reverse link it
replaced -- a :class:`~repro.sim.link.Link` behind a 10,000-packet
``DropTailQueue`` -- on any send schedule.

A program draws a rate, a propagation delay, sends (same-instant
bursts, sends while a serialization runs, sizes and flows), reads of
the byte counters and a ``run(until)``.  Gaps, sizes and rates are
drawn so that sends, reads and the end of the run often fall exactly on
a serialization's end or an arrival.  One log records, in the order
they happen, every arrival at the sink (time by ``float.hex``, packet),
every call of each of two taps and every read; the wire's log must be
the link's, untraced and traced, and so must ``events_processed``, the
counters after ``run(until)`` and the traced ``DELIVER`` events, each
emitted at its own time.  Every send and read is on the heap before the run, so an
arrival that ties with one of them comes after it on both sides.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.bus import BUS, EventKind
from repro.qdisc import DropTailQueue
from repro.sim import Link, Simulator
from repro.sim.link import Wire

from .helpers import make_data

FLOWS = "abc"
#: Bytes/second: exact 1, 1.5, 0.052 and 0.1 s serializations at
#: 1,000 B/s, inexact ones at 3,000 B/s, and the ACK path of a
#: 20 Mbit/s dumbbell (40 x 2.5 MB/s).
RATES = (1000.0, 3000.0, 1e8)
SIZES = (52, 100, 1000, 1500)
GAPS = (0.0, 0.0, 0.052, 0.1, 0.5, 1.0, 1.5, 0.3)
DELAYS = (0.0, 0.1, 1.0, 2.5)

PROGRAMS = st.tuples(
    st.sampled_from(RATES),
    st.sampled_from(DELAYS),
    st.lists(st.tuples(st.sampled_from(GAPS), st.sampled_from(SIZES),
                       st.sampled_from(FLOWS)), min_size=1, max_size=30),
    # A read or the end of the run: (send index, offset after it).
    st.lists(st.tuples(st.integers(0, 29), st.sampled_from(GAPS)),
             max_size=6),
    st.tuples(st.integers(0, 29), st.sampled_from(GAPS + (5.0, 60.0))),
)


class _Sink:
    def __init__(self, sim, log):
        self.sim = sim
        self.log = log

    def send(self, packet):
        self.log.append(("arrive", self.sim.now.hex(), packet.seq))


def _run(kind, program, traced):
    rate, delay, sends, reads, until = program
    sim = Simulator()
    log = []
    sink = _Sink(sim, log)
    if kind == "link":
        element = Link(sim, rate, sink=sink,
                       qdisc=DropTailQueue(limit_packets=10_000),
                       name="reverse", delay=delay)
    else:
        element = Wire(sim, rate, sink, delay, "reverse")
    for tap in ("tap1", "tap2"):
        element.add_tap(lambda p, now, tap=tap: log.append(
            (tap, now.hex(), p.seq)))

    def read():
        log.append(("read", sim.now.hex(), element.delivered_bytes,
                    [element.flow_bytes(f) for f in FLOWS]))

    times = []
    now = 0.0
    for seq, (gap, size, flow) in enumerate(sends):
        now += gap
        times.append(now)
        packet = make_data(flow, seq=seq, payload=size - 52, size=size)
        sim.schedule_at(now, lambda p=packet: element.send(p))
    for index, offset in reads:
        sim.schedule_at(times[index % len(times)] + offset, read)
    index, offset = until
    delivers = []

    def on_event(event):
        if event.kind == EventKind.DELIVER:
            delivers.append((event.time.hex(), sim.now.hex(), event.flow,
                             event.value))

    with (_subscribed(on_event) if traced
          else mock.patch.object(BUS, "enabled", False)):
        sim.run(until=times[index % len(times)] + offset)
    # What the end of run() applied, before a read could apply it.
    observed = list(log)
    return (observed, element.delivered_bytes,
            [element.flow_bytes(f) for f in FLOWS],
            sim.events_processed), delivers


@contextmanager
def _subscribed(subscriber):
    BUS.subscribe(subscriber)
    try:
        yield
    finally:
        BUS.unsubscribe(subscriber)


def check_wire_against_link(program):
    link, _ = _run("link", program, traced=False)
    wire, _ = _run("wire", program, traced=False)
    assert wire == link
    link_traced, link_delivers = _run("link", program, traced=True)
    wire_traced, wire_delivers = _run("wire", program, traced=True)
    assert wire_traced == link_traced == link
    # Each DELIVER is emitted at its own time, one per tap call.
    assert wire_delivers == link_delivers
    assert all(when == now for when, now, _, _ in wire_delivers)
    shown = [entry[1] for entry in link[0] if entry[0] == "tap1"]
    assert [when for when, _, _, _ in wire_delivers] == shown


@settings(max_examples=200, deadline=None)
@given(PROGRAMS)
def test_wire_is_the_reverse_link_on_any_send_schedule(program):
    check_wire_against_link(program)


@pytest.mark.fuzz
@settings(max_examples=5000, deadline=None)
@given(PROGRAMS)
def test_wire_is_the_reverse_link_on_any_send_schedule_at_length(program):
    check_wire_against_link(program)


def test_waiting_sends_and_reads_on_serialization_ends():
    # b waits behind a, c behind b (it ends at 2.552 s); the first read
    # and the end of the run fall exactly on a's and b's ends.
    program = (1000.0, 1.0, [(0.0, 1000, "a"), (0.0, 1500, "b"),
                             (1.0, 52, "c")],
               [(0, 1.0), (1, 2.0)], (2, 1.5))
    (log, delivered, per_flow, events), _ = _run("wire", program, False)
    assert [entry for entry in log if entry[0] == "read"] == [
        ("read", (1.0).hex(), 1000, [1000, 0, 0]),
        ("read", (2.0).hex(), 1000, [1000, 0, 0])]
    assert delivered == 2500 and per_flow == [1000, 1500, 0]
    assert events == 3 + 2 + 1  # sends, reads, a's arrival at 2.0 s
    check_wire_against_link(program)

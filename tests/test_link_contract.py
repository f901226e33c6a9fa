"""The lazy link's contract.

A :class:`~repro.sim.link.Link` schedules one event per packet (its
arrival after propagation) and applies each serialization's end at
its own timestamp when something next touches the link.  A traced run
also wakes the link at each end, so the trace stays in time order;
those wakes are not events.  These tests hold what that must not
change:

* traced and untraced runs give the same readings, throughput and
  verdict (the ledger's seven ``paths_packet`` shapes, a ``tbf``, a
  ``policer`` and a second ``csma-5`` path), with a trace that passes
  every invariant checker;
* state read after ``run(until)`` includes every transmission that
  ended by ``until``, also when the link is idle and nothing touched
  it since;
* a rate change in the middle of a backlog applies to the next
  transmission only;
* an untraced run executes one callback per packet per hop, plus the
  source's own events.
"""

import json
from pathlib import Path

import pytest

from repro.core.campaign import PathSpec
from repro.core.detector import ContentionDetector
from repro.core.path import build_packet_path
from repro.obs import BUS
from repro.obs.invariants import all_checkers
from repro.qa.scenario import Scenario
from repro.qdisc import DropTailQueue, TokenBucketFilter
from repro.sim import CountingSink, Link, Simulator, dumbbell
from repro.traffic.cbr import CbrSource
from repro.units import mbps, ms

from .helpers import make_data

PATH_GOLDEN = Path(__file__).parent / "data" / "path_golden.json"

#: Beside the seven ledger shapes (with the path golden's seeds): both
#: token-gated qdiscs, whose retries the link files itself, and a
#: second shared medium.  A probe ``PathSpec`` takes neither token-gated
#: qdisc, so these are probe-family scenarios on the same builder.
EXTRA_PATHS = {
    "reno-tbf": {"qdisc": "tbf", "cross_traffic": "reno", "seed": 23},
    "reno-policer": {"qdisc": "policer", "cross_traffic": "reno",
                     "seed": 24},
    "cbr-csma5": {"qdisc": "droptail", "cross_traffic": "cbr",
                  "medium": "csma-5", "seed": 25},
}


def _paths() -> dict:
    golden = json.loads(PATH_GOLDEN.read_text())
    paths = {case["shape"]: PathSpec(**case["spec"])
             for case in golden["paths"]}
    for shape, axes in EXTRA_PATHS.items():
        paths[shape] = Scenario(family="probe", rate_mbps=20.0,
                                rtt_ms=50.0, duration=8.0, **axes)
    return paths


def _probe_row(spec) -> tuple:
    """What packet ``run_path`` returns at 8 s, for either spec type."""
    handles, sources = build_packet_path(spec)
    handles.sim.run(until=8.0)
    report = sources["probe"].report()
    return ([(r.time, r.elasticity, r.peak_amplitude,
              r.background_amplitude, r.mean_cross_rate)
             for r in report.readings],
            report.mean_throughput,
            ContentionDetector().verdict(list(report.readings)),
            handles.sim.events_processed)


class _Audit:
    """Every invariant checker, subscribed for the length of a block."""

    def __enter__(self):
        self.checkers = all_checkers()
        BUS.subscribe(self._observe)
        return self

    def _observe(self, event):
        for checker in self.checkers:
            checker.observe(event)

    def __exit__(self, *exc):
        BUS.unsubscribe(self._observe)
        return False

    @property
    def violations(self):
        return [str(v) for c in self.checkers for v in c.violations]


@pytest.mark.parametrize("shape", sorted(_paths()))
def test_traced_and_untraced_paths_agree(shape, bus_off):
    spec = _paths()[shape]
    with bus_off():
        untraced = _probe_row(spec)
    with _Audit() as audit:
        traced = _probe_row(spec)
    assert audit.violations == []
    assert traced == untraced
    assert untraced[0], "8 s must give the probe readings"


def pkt(flow="f", size=1500):
    return make_data(flow, seq=0, payload=size - 52, size=size)


def _idle_link(sim, taps):
    """Three packets into a long pipe: serializations end at 1, 2 and
    3 s, arrivals come at 11, 12 and 13 s, so nothing touches the link
    between its sends at 0 s and the first arrival."""
    qdisc = DropTailQueue(limit_packets=10)
    link = Link(sim, rate=1500.0, sink=CountingSink(), qdisc=qdisc,
                delay=10.0)
    link.add_tap(lambda p, now: taps.append((now, p.flow_id)))
    for flow in "abc":
        link.send(pkt(flow))
    return link, qdisc


def _idle_link_run(traced: bool, bus_off):
    sim = Simulator()
    taps = []
    with (_Audit() if traced else bus_off()):
        link, qdisc = _idle_link(sim, taps)
        sim.run(until=5.0)
    # What only the end of run() can bring up to date comes first: the
    # taps and the qdisc object itself; then the link's own counters.
    return (list(taps), qdisc.dequeued, qdisc.dequeued_bytes, len(qdisc),
            link.delivered_bytes,
            [link.flow_bytes(f) for f in "abc"], link.busy_time,
            sim.events_processed)


def test_reads_after_run_include_every_ended_transmission(bus_off):
    untraced = _idle_link_run(False, bus_off)
    assert untraced == ([(1.0, "a"), (2.0, "b"), (3.0, "c")], 3, 4500, 0,
                        4500, [1500, 1500, 1500], 3.0, 0)
    assert _idle_link_run(True, bus_off) == untraced


@pytest.mark.parametrize("read, expect", [
    (lambda link: link.delivered_bytes, 3000),
    (lambda link: link.flow_bytes("b"), 1500),
    (lambda link: len(link.qdisc), 0),
    (lambda link: link.qdisc.dequeued, 3),
    (lambda link: link.queue_delay, 0.0),
    (lambda link: link.busy_time, 3.0),
], ids=["delivered_bytes", "flow_bytes", "qdisc_len",
        "qdisc_dequeued", "queue_delay", "busy_time"])
def test_a_read_mid_run_sees_every_ended_transmission(read, expect,
                                                      bus_off):
    # At 2.5 s two transmissions have ended and the third started at
    # 2.0 s; each read is the first touch since the sends.
    sim = Simulator()
    seen = []
    with bus_off():
        link, _ = _idle_link(sim, [])
        sim.schedule(2.5, lambda: seen.append(read(link)))
        sim.run(until=2.6)
    assert seen == [expect]


def test_dumbbell_reads_after_run_match_the_traced_run(bus_off):
    # A CBR source that stops at 2 s: the bottleneck is idle well
    # before run(until) ends, in both runs.
    def run(traced):
        sim = Simulator()
        path = dumbbell(sim, mbps(10), ms(40))
        cbr = CbrSource(sim, path, "cbr", rate=mbps(6), packet_size=1200)
        with (_Audit() if traced else bus_off()) as audit:
            cbr.start()
            sim.schedule(2.0, cbr.stop)
            sim.run(until=3.0)
        q = path.bottleneck.qdisc
        return ((q.enqueued, q.dequeued, q.dequeued_bytes, q.drops),
                path.bottleneck.flow_bytes("cbr"),
                path.bottleneck.delivered_bytes, cbr.delivered_bytes,
                sim.events_processed,
                audit.violations if traced else [])

    untraced = run(False)
    assert untraced[0][1] == untraced[0][0] > 0
    assert untraced[1] == untraced[2] == untraced[3] == untraced[0][2]
    assert run(True) == untraced


@pytest.mark.parametrize("traced", [False, True])
def test_token_gated_retry_never_lands_in_the_past(traced, bus_off):
    # A TBF releasing one packet a second behind a fast link: each
    # wait is a retry the link files for itself, and a send landing
    # after a due retry continues the chain at the retry's time.
    sim = Simulator()
    taps = []
    tbf = TokenBucketFilter(rate=1514.0, burst=1514)
    link = Link(sim, rate=1e9, sink=CountingSink(), qdisc=tbf, delay=0.1)
    link.add_tap(lambda p, now: taps.append(now))
    with (_Audit() if traced else bus_off()) as audit:
        for _ in range(3):
            link.send(pkt(size=1514))
        sim.schedule(2.5, lambda: link.send(pkt(size=1514)))
        sim.run(until=6.0)
    assert len(taps) == 4
    assert taps == sorted(taps)
    assert all(b - a >= 1.0 - 1e-6 for a, b in zip(taps, taps[1:]))
    if traced:
        assert audit.violations == []


def test_zero_delay_link_traced_and_untraced(bus_off):
    def run(traced):
        sim = Simulator()
        sink = CountingSink()
        taps = []
        link = Link(sim, rate=3000.0, sink=sink,
                    qdisc=DropTailQueue(limit_packets=100), delay=0.0)
        link.add_tap(lambda p, now: taps.append(now))
        with (_Audit() if traced else bus_off()):
            for _ in range(5):
                link.send(pkt())
            sim.run()
        return taps, sink.packets, sim.events_processed

    assert run(False) == ([0.5, 1.0, 1.5, 2.0, 2.5], 5, 5)
    assert run(True) == run(False)


@pytest.mark.parametrize("traced", [False, True])
def test_one_callback_per_packet_per_hop(traced, bus_off):
    # A CBR source through two links in series: each packet costs one
    # arrival per hop, and the source one event per packet after its
    # first.  A traced run's wakes are not events.
    sim = Simulator()
    sink = CountingSink()
    second = Link(sim, rate=mbps(20), sink=sink,
                  qdisc=DropTailQueue(limit_packets=100), delay=0.005)
    first = Link(sim, rate=mbps(10), sink=second,
                 qdisc=DropTailQueue(limit_packets=100), delay=0.01)
    sent = []

    def tick():
        first.send(pkt())
        sent.append(sim.now)
        if len(sent) < 500:
            sim.call_later(0.002, tick)

    with (_Audit() if traced else bus_off()):
        tick()
        sim.run()
    assert sink.packets == len(sent) == 500
    assert sim.events_processed == (len(sent) - 1) + 2 * sink.packets

"""Per-packet work that nothing would read is not done.

* An idle link asks its qdisc when to look again only if the qdisc's
  class overrides ``next_ready_time`` -- ``tbf`` and ``htb``, the
  token-gated ones.  Any other discipline is idle until the next send.
* A :class:`~repro.cca.nimbus.NimbusCca` told the link rate never feeds
  its μ max-filter, whose value only an unhinted probe reads.
* A fluid FIFO asks its early-action hook only if its class overrides
  it -- RED and CoDel, once per tick that has arrivals.  A plain FIFO
  (``droptail``, ``htb``, ``tbf``) never early-drops, so never asks.
* ACKs cross a :class:`~repro.sim.link.Wire` on every topology: an
  ACK's trip from the receiver to the sender calls nothing in
  :mod:`repro.qdisc` and pushes one heap entry, its arrival.

Counted on 2-second runs of two of the ledger's ``paths_packet``
shapes; a ``tbf`` path and an unhinted probe are the controls that show
the counters count.
"""

import sys

import pytest

from repro.cca.base import AckSample
from repro.cca.nimbus import NimbusCca
from repro.core.campaign import PathSpec
from repro.core.path import build_packet_path
from repro.experiments.tbf_jitter import _shaped_path
from repro.fluid.queue import (CodelBottleneck, FifoBottleneck,
                               RedBottleneck)
from repro.fluid.runner import build_fluid_path
from repro.qa.scenario import Scenario
from repro.medium.config import parse_medium
from repro.qdisc import DropTailQueue, TokenBucketFilter
from repro.qdisc.base import Qdisc
from repro.sim import Simulator, dumbbell, trace_dumbbell
from repro.sim.link import Wire
from repro.sim.network import medium_dumbbell
from repro.units import mbps, ms

from .helpers import make_data


def _count_polls(monkeypatch) -> list:
    """Patch every ``next_ready_time`` rule to record its calls."""
    polls = []
    for cls in (Qdisc, TokenBucketFilter):
        rule = cls.next_ready_time

        def counted(self, now, rule=rule):
            polls.append(now)
            return rule(self, now)

        monkeypatch.setattr(cls, "next_ready_time", counted)
    return polls


def _run(spec, seconds: float = 2.0) -> list:
    """Run ``spec`` with its probe's μ-filter updates counted."""
    handles, sources = build_packet_path(spec)
    mu_filter = sources["probe"].cca._mu_filter
    updates = []
    update = mu_filter.update

    def counted(key, value):
        updates.append(key)
        update(key, value)

    mu_filter.update = counted
    handles.sim.run(until=seconds)
    assert handles.bottleneck.busy_time > 0.5 * seconds
    return updates


@pytest.mark.parametrize("cross, qdisc", [("reno", "droptail"),
                                          ("bbr", "fq")])
def test_untokened_links_never_poll_and_a_hinted_probe_never_filters(
        cross, qdisc, monkeypatch):
    polls = _count_polls(monkeypatch)
    updates = _run(PathSpec(rate_mbps=20.0, rtt_ms=50.0, qdisc=qdisc,
                            cross_traffic=cross, seed=7))
    assert polls == []
    assert updates == []


def test_a_token_gated_link_still_polls(monkeypatch):
    polls = _count_polls(monkeypatch)
    _run(Scenario(family="probe", rate_mbps=20.0, rtt_ms=50.0,
                  duration=2.0, qdisc="tbf", cross_traffic="reno", seed=23))
    assert len(polls) > 0


def test_only_an_unhinted_probe_feeds_its_mu_filter():
    sample = AckSample(0.1, 1448, 0.05, 0.05, 0.05, 10_000, 2e6, False,
                       1448, False, False)
    for hint, filtered in ((None, 2e6), (6e6, None)):
        cca = NimbusCca(capacity_hint=hint)
        cca.bind_flow("probe", 1448)
        cca.on_ack(sample)
        assert cca._mu_filter.value == filtered


def _count_hook_calls(monkeypatch, qdisc) -> tuple[int, int]:
    """(hook calls, ticks with arrivals) over a 2-second fluid probe
    path behind ``qdisc`` with Reno cross traffic."""
    calls = []
    for cls in (FifoBottleneck, RedBottleneck, CodelBottleneck):
        hook = cls._early_action

        def counted(self, total_in, dt, hook=hook):
            calls.append(total_in)
            return hook(self, total_in, dt)

        monkeypatch.setattr(cls, "_early_action", counted)
    scenario = Scenario(family="probe", rate_mbps=20.0, rtt_ms=50.0,
                        duration=2.0, qdisc=qdisc, cross_traffic="reno",
                        seed=23, backend="fluid")
    model, _ = build_fluid_path(scenario, **scenario.builder_arguments())
    fed = []
    tick = model.bottleneck.tick

    def counted_tick(arrivals, dt):
        fed.append(any(a > 0.0 for a in arrivals))
        return tick(arrivals, dt)

    model.bottleneck.tick = counted_tick
    model.run(scenario.duration)
    assert len(fed) == model.ticks == 400
    return len(calls), fed.count(True)


@pytest.mark.parametrize("qdisc", ["droptail", "htb", "tbf"])
def test_a_plain_fluid_fifo_never_asks_its_hook(qdisc, monkeypatch):
    calls, fed = _count_hook_calls(monkeypatch, qdisc)
    assert calls == 0 and fed > 300


@pytest.mark.parametrize("qdisc", ["red", "codel"])
def test_an_aqm_asks_its_hook_once_per_tick_with_arrivals(qdisc,
                                                          monkeypatch):
    calls, fed = _count_hook_calls(monkeypatch, qdisc)
    assert calls == fed > 300


def test_every_topology_returns_acks_over_a_wire():
    sim = Simulator()
    paths = [
        dumbbell(sim, mbps(20), ms(50)),
        medium_dumbbell(sim, mbps(20), ms(50), parse_medium("csma-5"),
                        qdisc_factory=lambda: DropTailQueue(
                            limit_packets=40)),
        trace_dumbbell(sim, [1.0, 2.0], ms(50)),
        _shaped_path(sim, mbps(10), mbps(1000), ms(20), None),
        _shaped_path(sim, mbps(10), mbps(1000), ms(20), 60_000),
    ]
    assert all(type(path.reverse_entry) is Wire for path in paths)


def test_an_ack_crosses_no_qdisc_and_pushes_one_heap_entry(monkeypatch,
                                                           bus_off):
    """Every call into ``repro.qdisc`` made while a wire takes an ACK,
    and from its arrival until the hand-over to the sender's host."""
    qdisc_calls, pushes, acks = [], [], []

    def watch(frame, event, arg):
        if event == "call" and "/repro/qdisc/" in frame.f_code.co_filename:
            qdisc_calls.append(frame.f_code.co_name)

    send, arrive = Wire.send, Wire._arrive

    def watched_send(self, packet):
        before = len(self.sim._heap)
        sys.setprofile(watch)
        try:
            send(self, packet)
        finally:
            sys.setprofile(None)
        pushes.append(len(self.sim._heap) - before)

    def watched_arrive(self):
        sys.setprofile(watch)
        try:
            arrive(self)
        finally:
            sys.setprofile(None)

    class HandOver:
        def __init__(self, host):
            self.host = host

        def send(self, packet):
            sys.setprofile(None)
            acks.append(packet)
            self.host.send(packet)

    monkeypatch.setattr(Wire, "send", watched_send)
    monkeypatch.setattr(Wire, "_arrive", watched_arrive)
    with bus_off():
        handles, _ = build_packet_path(PathSpec(
            rate_mbps=20.0, rtt_ms=50.0, qdisc="droptail",
            cross_traffic="reno", seed=7))
        wire = handles.reverse_entry
        wire.sink = HandOver(wire.sink)
        handles.sim.run(until=2.0)
    assert len(acks) > 1000 and len(pushes) >= len(acks)
    assert qdisc_calls == []
    assert set(pushes) == {1}
    # The control: the watch sees a bottleneck's qdisc.
    sys.setprofile(watch)
    try:
        handles.bottleneck.send(make_data("probe", seq=0, payload=1448))
    finally:
        sys.setprofile(None)
    assert "enqueue" in qdisc_calls

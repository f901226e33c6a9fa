"""Topology builders.

Experiments in this repo overwhelmingly use a dumbbell: many senders
share one bottleneck link toward one receiving host, with ACKs
returning over an uncongested reverse path.  That matches both the
paper's Figure 3 setup (one emulated Mahimahi link) and the access-link
scenarios of §2.2-2.3.

Every link carries its own propagation delay (``rtt / 2`` each way),
so a packet costs one heap entry per hop: its arrival.  ACKs return
over a :class:`~repro.sim.link.Wire`, which has no qdisc.  The builders
return a :class:`PathHandles` bundle; transport glue in
:mod:`repro.tcp` attaches flows to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigError
from ..qdisc.base import Qdisc
from ..qdisc.fifo import DropTailQueue
from ..units import bdp_packets
from .engine import Simulator
from .link import Link, TraceLink, Wire
from .node import Host


@dataclass
class PathHandles:
    """Handles for one direction-pair of a built topology.

    Attributes:
        sim: the simulator driving everything.
        entry: where senders inject data packets (the bottleneck).
        bottleneck: the bottleneck link itself (for stats/taps).
        src_host: host receiving ACKs (senders live here).
        dst_host: host receiving data (receivers live here).
        reverse_entry: where receivers inject ACKs.
        rtt: two-way propagation delay (excluding queueing).
    """

    sim: Simulator
    entry: object
    bottleneck: object
    src_host: Host
    dst_host: Host
    reverse_entry: object
    rtt: float
    extras: dict = field(default_factory=dict)


def default_buffer_packets(rate_bps: float, rtt: float,
                           multiplier: float = 1.0) -> int:
    """A bottleneck buffer of ``multiplier`` x BDP, at least 10 packets."""
    return max(10, int(round(bdp_packets(rate_bps, rtt) * multiplier)))


#: ACK-path rate as a multiple of the forward rate: effectively
#: uncongested but still serializing.
REVERSE_RATE_FACTOR = 40.0


def _ends(sim: Simulator, rtt: float, reverse_rate_bps: float):
    """What every topology shares: the two hosts and the uncongested
    ACK path back to ``src``, ``rtt / 2`` long.  Returns
    ``(src, dst, reverse)``; the bottleneck carries the other half."""
    if rtt <= 0:
        raise ConfigError(f"rtt must be positive: {rtt}")
    src = Host("src")
    dst = Host("dst")
    reverse = Wire(sim, reverse_rate_bps, src, rtt / 2.0, "reverse")
    return src, dst, reverse


def dumbbell(sim: Simulator, rate_bps: float, rtt: float,
             qdisc: Optional[Qdisc] = None,
             buffer_multiplier: float = 1.0) -> PathHandles:
    """Build a single-bottleneck dumbbell.

    Forward path: entry -> bottleneck(rate, qdisc, delay rtt/2) -> dst.
    Reverse path: reverse_entry -> fast wire(delay rtt/2) -> src.

    Args:
        rate_bps: bottleneck rate, bytes/second.
        rtt: two-way propagation delay, seconds.
        qdisc: bottleneck queue (default: 1xBDP DropTail).
        buffer_multiplier: BDP multiple for the default queue size.
    """
    src, dst, reverse = _ends(sim, rtt, rate_bps * REVERSE_RATE_FACTOR)
    if qdisc is None:
        qdisc = DropTailQueue(limit_packets=default_buffer_packets(
            rate_bps, rtt, buffer_multiplier))
    bottleneck = Link(sim, rate_bps, sink=dst, qdisc=qdisc,
                      name="bottleneck", delay=rtt / 2.0)
    return PathHandles(sim=sim, entry=bottleneck, bottleneck=bottleneck,
                       src_host=src, dst_host=dst, reverse_entry=reverse,
                       rtt=rtt)


def medium_dumbbell(sim: Simulator, rate_bps: float, rtt: float, spec,
                    qdisc_factory=None, seed: int = 0) -> PathHandles:
    """A dumbbell whose bottleneck is a CSMA/CA shared medium.

    Forward data crosses a :class:`~repro.sim.medium.MediumLink`
    (stations contending for airtime, per-station qdiscs built by
    ``qdisc_factory``); ACKs return over the usual fast wire, as on
    an infrastructure WLAN where the AP's downlink is not the
    contended direction under study.

    Args:
        rate_bps: raw medium rate, bytes/second (goodput is lower --
            backoff, collisions, and MAC overhead burn airtime).
        rtt: two-way propagation delay, seconds.
        spec: a :class:`~repro.medium.config.MediumSpec`.
        qdisc_factory: builds one egress qdisc per station.
        seed: root seed for the per-station backoff RNG.
    """
    from .medium import MediumLink

    src, dst, reverse = _ends(sim, rtt, rate_bps * REVERSE_RATE_FACTOR)
    bottleneck = MediumLink(sim, rate_bps, spec, rtt / 2.0, sink=dst,
                            qdisc_factory=qdisc_factory, seed=seed,
                            name="bottleneck")
    return PathHandles(sim=sim, entry=bottleneck, bottleneck=bottleneck,
                       src_host=src, dst_host=dst, reverse_entry=reverse,
                       rtt=rtt, extras={"medium": bottleneck})


def bottleneck_path(sim: Simulator, rate_bps: float, rtt: float,
                    qdisc_factory, medium=None, seed: int = 0) -> PathHandles:
    """The dumbbell a probe path runs on, in either bottleneck regime.

    ``medium`` is None for a queue-fronted link (one qdisc from
    ``qdisc_factory``) or a :class:`~repro.medium.config.MediumSpec`
    for a CSMA/CA shared medium (one qdisc per station, ``seed`` roots
    the backoff streams).
    """
    if medium is None:
        return dumbbell(sim, rate_bps, rtt, qdisc=qdisc_factory())
    return medium_dumbbell(sim, rate_bps, rtt, medium,
                           qdisc_factory=qdisc_factory, seed=seed)


def trace_dumbbell(sim: Simulator, opportunities_ms: list[float], rtt: float,
                   buffer_packets: int = 200) -> PathHandles:
    """A dumbbell whose bottleneck is a Mahimahi-style trace link."""
    src, dst, reverse = _ends(sim, rtt, 1e9)
    bottleneck = TraceLink(
        sim, opportunities_ms, rtt / 2.0, sink=dst,
        qdisc=DropTailQueue(limit_packets=buffer_packets),
        name="trace-bottleneck")
    return PathHandles(sim=sim, entry=bottleneck, bottleneck=bottleneck,
                       src_host=src, dst_host=dst, reverse_entry=reverse,
                       rtt=rtt)

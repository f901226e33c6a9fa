"""The packet-backend path builder.

One function assembles every probe-over-dumbbell and flows-over-dumbbell
simulation the packet backend runs: ``run_path`` (and through it
``run_quicklook``), ``run_scenario`` and E16's packet arm are result
shapers over :func:`build_packet_path`, so a verdict means the same
thing on every surface.  Its fluid twin is
:func:`repro.fluid.runner.build_fluid_path` (same arguments).
"""

from __future__ import annotations

from ..cca import make_cca
from ..cca.cbr import CbrCca
from ..errors import ConfigError
from ..medium.config import parse_medium
from ..qdisc import (CoDelQueue, DropTailQueue, DrrFairQueue, HtbClass,
                     HtbQueue, Policer, RedQueue, StochasticFairQueue,
                     TokenBucketFilter)
from ..sim.engine import Simulator
from ..sim.jitter import TimingJitter
from ..sim.network import PathHandles, bottleneck_path, default_buffer_packets
from ..traffic.backlogged import BackloggedFlow
from ..traffic.mix import make_cross_traffic
from ..units import mbps, ms
from .axes import axis_values
from .probe import ElasticityProbe

#: Every qdisc in :mod:`repro.qdisc`, by scenario name.
QDISC_NAMES = ("droptail", "red", "codel", "fq", "sfq", "tbf",
               "policer", "htb")


def build_qdisc(spec):
    """Build the bottleneck qdisc ``spec`` names (all eight supported).

    Shaper/policer rates are derived from the link rate (90% for
    tbf/policer, a 45%/45% class split for htb) so rescaling the link
    rescales the whole bottleneck -- the property the rate-monotonicity
    oracle relies on.
    """
    rate = mbps(spec.rate_mbps)
    rtt = ms(spec.rtt_ms)
    buf = default_buffer_packets(rate, rtt, spec.buffer_multiplier)
    name = spec.qdisc
    if name == "droptail":
        return DropTailQueue(limit_packets=buf)
    if name == "red":
        limit = max(buf, 8)
        min_thresh = max(1, limit // 4)
        max_thresh = max(min_thresh + 1, (3 * limit) // 4)
        return RedQueue(min_thresh=min_thresh, max_thresh=max_thresh,
                        limit_packets=limit, seed=spec.seed)
    if name == "codel":
        return CoDelQueue(limit_packets=buf)
    if name == "fq":
        return DrrFairQueue(limit_packets=buf)
    if name == "sfq":
        return StochasticFairQueue(limit_packets=buf, buckets=32,
                                   salt=spec.seed & 0xFFFF)
    if name == "tbf":
        return TokenBucketFilter(rate=0.9 * rate, burst=30_000,
                                 child=DropTailQueue(limit_packets=buf))
    if name == "policer":
        return Policer(rate=0.9 * rate, burst=30_000,
                       child=DropTailQueue(limit_packets=buf))
    if name == "htb":
        classes = [HtbClass("a", rate=0.45 * rate, ceil=rate),
                   HtbClass("b", rate=0.45 * rate, ceil=rate)]
        return HtbQueue(classes, default_class="a", limit_packets=buf)
    raise ConfigError(f"unknown qdisc {name!r}")  # pragma: no cover


def build_packet_path(spec, *, probe: bool = True, flows=(),
                      cross_ids: tuple[str, ...] = ("cross",)
                      ) -> tuple[PathHandles, dict]:
    """Assemble ``spec``'s bottleneck with a probe and/or flows on it.

    Returns the topology (``handles.sim.run(until=...)`` runs it) and
    every source on it by flow id: ``flow-<i>``, cross traffic, then
    ``"probe"`` (an :class:`ElasticityProbe`).  Sources start as they
    are built (a backlogged flow pumps its initial window into the
    qdisc at once), so a caller that captures the event trace must
    already be capturing when it calls this.

    Args:
        spec: the path -- a :class:`~repro.core.campaign.PathSpec`, a
            :class:`~repro.qa.scenario.Scenario`, or anything else with
            ``rate_mbps``, ``rtt_ms``, ``qdisc``, ``buffer_multiplier``
            (BDPs; per station on a shared medium), ``seed`` (qdisc
            salts, traffic RNG, MAC backoff, jitter streams) and
            ``cross_traffic``.  Late axes it lacks read as their
            defaults; ``timing_jitter`` touches the probe and the
            measured flows, never cross traffic.
        probe: attach the §3.2 elasticity probe (flow id "probe"), told
            the link rate as a speedtest server would know it.
        flows: measured flows ``flow-<i>``, each with ``cca``,
            ``rate_frac``, ``user_id``, ``start`` and ``ecn``.
        cross_ids: one ``spec.cross_traffic`` source per id; source
            *i* is seeded ``seed + i``.
    """
    sim = Simulator()
    rate = mbps(spec.rate_mbps)
    axes = axis_values(spec, "scenario", "path")
    handles = bottleneck_path(
        sim, rate, ms(spec.rtt_ms), lambda: build_qdisc(spec),
        medium=parse_medium(axes["medium"]), seed=spec.seed)
    def jitter(stream: str) -> TimingJitter | None:
        if axes["timing_jitter"] <= 0.0:
            return None
        return TimingJitter(axes["timing_jitter"], spec.seed, stream)

    the_probe = None
    if probe:
        the_probe = ElasticityProbe(sim, handles, capacity_hint=rate,
                                    jitter=jitter("probe"))
        the_probe.start()
    sources: dict = {}
    for i, flow_spec in enumerate(flows):
        cca = (CbrCca(rate=max(10_000.0, flow_spec.rate_frac * rate))
               if flow_spec.cca == "cbr" else make_cca(flow_spec.cca))
        flow = BackloggedFlow(sim, handles, f"flow-{i}", cca,
                              user_id=flow_spec.user_id,
                              ecn=flow_spec.ecn,
                              jitter=jitter(f"flow-{i}"))
        if flow_spec.start > 0:
            sim.schedule(flow_spec.start, flow.start)
        else:
            flow.start()
        sources[f"flow-{i}"] = flow
    for i, flow_id in enumerate(cross_ids):
        cross = make_cross_traffic(spec.cross_traffic, sim, handles,
                                   flow_id, seed=spec.seed + i)
        cross.start()
        sources[flow_id] = cross
    if probe:
        sources["probe"] = the_probe
    return handles, sources

"""The fluid-backend path builder and its result shapers.

:func:`build_fluid_path` is the only place a :class:`FluidModel` is
constructed; it takes the same arguments as the packet builder
(:func:`repro.core.path.build_packet_path`).  The two adapters mirror
:func:`repro.qa.scenario.run_scenario` and
:func:`repro.core.campaign.run_path` -- same inputs, same result
types -- so everything downstream (detectors, campaigns, the store,
the HTTP service, the QA oracles) is backend-agnostic.
"""

from __future__ import annotations

from ..core.axes import axis_values
from ..core.detector import ContentionDetector, probe_summary
from ..medium.config import parse_medium
from ..sim.network import default_buffer_packets
from ..units import DEFAULT_PACKET_SIZE, mbps, ms
from .flows import make_cross_traffic, make_flow_cca
from .model import FluidModel
from .probe import FluidProbe


def build_fluid_path(spec, *, probe: bool = True, flows=(),
                     cross_ids: tuple[str, ...] = ("cross",)):
    """Assemble ``spec``'s fluid bottleneck with a probe and/or flows.

    Arguments as :func:`repro.core.path.build_packet_path`.  Returns
    the not yet run model and its flows by id, in model order:
    ``"probe"`` (a :class:`FluidProbe`), ``flow-<i>``, then cross
    traffic -- none for cross traffic named ``"none"``.
    """
    rate = mbps(spec.rate_mbps)
    rtt = ms(spec.rtt_ms)
    axes = axis_values(spec, "scenario", "path")
    buffer_bytes = default_buffer_packets(
        rate, rtt, spec.buffer_multiplier) * DEFAULT_PACKET_SIZE
    members: dict = {}
    if probe:
        members["probe"] = FluidProbe(rate, rtt, buffer_bytes / rate)
    for i, flow_spec in enumerate(flows):
        members[f"flow-{i}"] = make_flow_cca(
            flow_spec.cca, f"flow-{i}", rtt, rate,
            rate_frac=flow_spec.rate_frac, start=flow_spec.start)
    measured = len(members)
    for i, flow_id in enumerate(cross_ids):
        cross = make_cross_traffic(spec.cross_traffic, flow_id, rtt,
                                   seed=spec.seed + i)
        if cross is not None:
            members[flow_id] = cross
    model = FluidModel(
        list(members.values()), rate, buffer_bytes, qdisc=spec.qdisc,
        ecn=any(flow_spec.ecn for flow_spec in flows),
        jitter=axes["timing_jitter"], jitter_seed=spec.seed,
        jitter_mask=[i < measured for i in range(len(members))],
        medium=parse_medium(axes["medium"]))
    return model, members


def run_scenario_fluid(scenario, check_invariants: bool = True):
    """Fluid counterpart of :func:`repro.qa.scenario.run_scenario`.

    ``check_invariants`` is accepted for interface parity; the fluid
    backend has no packet trace to audit, so ``violations`` is always
    empty (cross-backend checking is the agreement oracle's job).
    """
    from ..qa.scenario import ScenarioOutcome

    model, flows = build_fluid_path(scenario,
                                    **scenario.builder_arguments())
    model.run(scenario.duration)
    return ScenarioOutcome(
        scenario=scenario,
        delivered={name: int(round(flow.delivered_bytes))
                   for name, flow in flows.items()},
        qdisc_stats=model.qdisc_stats(),
        events_processed=model.ticks,
        clock=model.now,
        violations=[],
        probe=(probe_summary(flows["probe"].report(scenario.duration))
               if "probe" in flows else None),
    )


def run_path_fluid(spec, duration: float = 30.0):
    """Fluid counterpart of :func:`repro.core.campaign.run_path`."""
    from ..core.campaign import PathResult

    model, flows = build_fluid_path(spec)
    model.run(duration)
    report = flows["probe"].report(duration)
    return PathResult(spec=spec, report=report,
                      verdict=ContentionDetector().verdict(
                          list(report.readings)))

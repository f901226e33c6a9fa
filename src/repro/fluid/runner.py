"""Adapters: run scenarios and campaign paths on the fluid backend.

These functions mirror :func:`repro.qa.scenario.run_scenario` and
:func:`repro.core.campaign.run_path` -- same inputs, same result
types -- so everything downstream (detectors, campaigns, the store,
the HTTP service, the QA oracles) is backend-agnostic.
"""

from __future__ import annotations

from ..core.detector import ContentionDetector
from ..core.probe import ProbeReport
from ..errors import ConfigError
from ..medium.config import parse_medium
from ..sim.network import default_buffer_packets
from ..units import DEFAULT_PACKET_SIZE, mbps, ms
from .flows import make_cross_traffic, make_flow_cca
from .model import FluidModel
from .probe import FluidProbe
from .queue import ordered_sum


def _probe_report(probe: FluidProbe, duration: float) -> ProbeReport:
    lo = probe.warmup
    readings = tuple(r for r in probe.readings if lo <= r.time < duration)
    if readings:
        values = [r.elasticity for r in readings]
        mean_e = ordered_sum(values) / len(values)
        peak_e = max(values)
    else:
        mean_e = 0.0
        peak_e = 0.0
    throughput = probe.delivered_bytes / max(duration, 1e-9)
    return ProbeReport(readings=readings, mean_elasticity=mean_e,
                       peak_elasticity=peak_e,
                       mean_throughput=throughput,
                       duration=duration - lo)


def run_scenario_fluid(scenario, check_invariants: bool = True):
    """Fluid counterpart of :func:`repro.qa.scenario.run_scenario`.

    ``check_invariants`` is accepted for interface parity; the fluid
    backend has no packet trace to audit, so ``violations`` is always
    empty (cross-backend checking is the agreement oracle's job).
    """
    from ..qa.scenario import ScenarioOutcome

    rate = mbps(scenario.rate_mbps)
    rtt = ms(scenario.rtt_ms)
    buffer_bytes = default_buffer_packets(
        rate, rtt, scenario.buffer_multiplier) * DEFAULT_PACKET_SIZE

    flows = []
    names = []
    probe = None
    ecn = False
    if scenario.family == "probe":
        probe = FluidProbe(rate, rtt, buffer_bytes / rate)
        flows.append(probe)
        names.append("probe")
    else:
        for i, spec in enumerate(scenario.flows):
            flows.append(make_flow_cca(
                spec.cca, f"flow-{i}", rtt, rate,
                rate_frac=spec.rate_frac, start=spec.start))
            names.append(f"flow-{i}")
            ecn = ecn or spec.ecn
    if scenario.family == "probe" or scenario.cross_traffic != "none":
        cross = make_cross_traffic(scenario.cross_traffic, "cross", rtt,
                                   seed=scenario.seed)
        if cross is not None:
            flows.append(cross)
            names.append("cross")

    if not flows:
        raise ConfigError(f"scenario has no flows: {scenario.label()}")
    model = FluidModel(flows, rate, buffer_bytes,
                       qdisc=scenario.qdisc, ecn=ecn,
                       jitter=scenario.timing_jitter,
                       jitter_seed=scenario.seed,
                       jitter_mask=[name != "cross" for name in names],
                       medium=parse_medium(getattr(scenario, "medium",
                                                   "queue")))
    model.run(scenario.duration)

    delivered = {name: int(round(flow.delivered_bytes))
                 for name, flow in zip(names, flows)}
    probe_summary = None
    if probe is not None:
        report = _probe_report(probe, scenario.duration)
        verdict = ContentionDetector().verdict(list(report.readings))
        probe_summary = {
            "mean_elasticity": verdict.mean_elasticity,
            "contending": verdict.contending,
            "category": verdict.category,
            "n_readings": verdict.n_readings,
        }
    return ScenarioOutcome(
        scenario=scenario,
        delivered=delivered,
        qdisc_stats=model.qdisc_stats(),
        events_processed=model.ticks,
        clock=model.now,
        violations=[],
        probe=probe_summary,
    )


def run_path_fluid(spec, duration: float = 30.0,
                   detector: ContentionDetector | None = None,
                   capacity_hint: bool = True):
    """Fluid counterpart of :func:`repro.core.campaign.run_path`.

    ``capacity_hint`` is accepted for interface parity: the fluid
    probe's control law always knows the drain rate (it is a model
    parameter, not a measurement), so the flag has no effect here.
    """
    from ..core.campaign import PathResult

    det = detector if detector is not None else ContentionDetector()
    rate = mbps(spec.rate_mbps)
    rtt = ms(spec.rtt_ms)
    buffer_bytes = default_buffer_packets(
        rate, rtt, spec.buffer_multiplier) * DEFAULT_PACKET_SIZE

    probe = FluidProbe(rate, rtt, buffer_bytes / rate)
    flows = [probe]
    cross = make_cross_traffic(spec.cross_traffic, "cross", rtt,
                               seed=spec.seed)
    if cross is not None:
        flows.append(cross)
    model = FluidModel(flows, rate, buffer_bytes, qdisc=spec.qdisc,
                       medium=parse_medium(getattr(spec, "medium",
                                                   "queue")))
    model.run(duration)

    report = _probe_report(probe, duration)
    verdict = det.verdict(list(report.readings))
    return PathResult(spec=spec, report=report, verdict=verdict)

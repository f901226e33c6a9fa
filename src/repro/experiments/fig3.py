"""Experiment E2 / Figure 3: the elasticity proof of concept.

The paper's setup: a 48 Mbit/s, 100 ms emulated Mahimahi link carrying
a Nimbus probe (mode switching disabled, pulses maintained) plus five
cross-traffic phases of 45 seconds each, in sequence:

1. a persistently backlogged **Reno** flow        (contending)
2. a persistently backlogged **BBR** flow         (contending)
3. an ABR **video** stream                        (not contending)
4. **Poisson** short flows                        (not contending)
5. constant-bitrate **CBR** UDP                   (not contending)

Expected shape: the elasticity metric is clearly higher during the
Reno and BBR phases than during the video / Poisson / CBR phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import viz
from ..core.detector import ordered_mean
from ..core.probe import ElasticityProbe
from ..qdisc.fifo import DropTailQueue
from ..sim.engine import Simulator
from ..sim.network import default_buffer_packets, dumbbell
from ..traffic.mix import (CROSS_TRAFFIC_IS_ELASTIC, FIGURE3_PHASES, Phase,
                           make_cross_traffic)
from ..units import mbps, ms, to_mbps
from .runner import ExperimentResult, Stopwatch, records_params

#: Paper parameters: 48 Mbit/s, 100 ms Mahimahi link, 45 s per phase.
LINK_RATE_MBPS = 48.0
LINK_RTT_MS = 100.0


@dataclass(frozen=True)
class PhaseOutcome:
    """Per-phase summary."""

    name: str
    start: float
    end: float
    mean_elasticity: float
    is_elastic_truth: bool
    probe_throughput_mbps: float
    cross_throughput_mbps: float


@records_params
def run(phases: tuple[Phase, ...] = FIGURE3_PHASES,
        rate_mbps: float = LINK_RATE_MBPS, rtt_ms: float = LINK_RTT_MS,
        seed: int = 0, settle: float = 6.0) -> ExperimentResult:
    """Run the Figure 3 scenario.

    Args:
        phases: cross-traffic phase plan (name, duration).
        settle: seconds at each phase start excluded from the phase
            mean (the 5 s estimator window spans the transition).
    """
    with Stopwatch() as watch:
        sim = Simulator()
        rate = mbps(rate_mbps)
        rtt = ms(rtt_ms)
        qdisc = DropTailQueue(
            limit_packets=default_buffer_packets(rate, rtt))
        path = dumbbell(sim, rate, rtt, qdisc=qdisc)
        probe = ElasticityProbe(sim, path, capacity_hint=rate)
        probe.start()

        outcomes: list[PhaseOutcome] = []
        t = 0.0
        for i, phase in enumerate(phases):
            cross = make_cross_traffic(phase.name, sim, path,
                                       f"cross-{i}-{phase.name}",
                                       seed=seed + i)
            cross_delivered_before = cross.delivered_bytes
            probe_delivered_before = \
                probe.connection.receiver.received_bytes
            cross.start()
            sim.run(until=t + phase.duration)
            cross.stop()
            readings = probe.readings_between(t + settle,
                                              t + phase.duration)
            mean_e = (ordered_mean([r.elasticity for r in readings])
                      if readings else 0.0)
            outcomes.append(PhaseOutcome(
                name=phase.name, start=t, end=t + phase.duration,
                mean_elasticity=mean_e,
                is_elastic_truth=CROSS_TRAFFIC_IS_ELASTIC[phase.name],
                probe_throughput_mbps=to_mbps(
                    (probe.connection.receiver.received_bytes
                     - probe_delivered_before) / phase.duration),
                cross_throughput_mbps=to_mbps(
                    (cross.delivered_bytes - cross_delivered_before)
                    / phase.duration),
            ))
            t += phase.duration
        all_readings = probe.readings

    # -- shape check: contending phases above non-contending ones ---------
    elastic_means = [o.mean_elasticity for o in outcomes
                     if o.is_elastic_truth]
    inelastic_means = [o.mean_elasticity for o in outcomes
                       if not o.is_elastic_truth]
    separation = (min(elastic_means) / max(inelastic_means)
                  if elastic_means and inelastic_means
                  and max(inelastic_means) > 0 else float("inf"))

    times = [r.time for r in all_readings]
    values = [r.elasticity for r in all_readings]
    chart = viz.line_chart(
        times, values, title=(
            f"Figure 3: elasticity vs time "
            f"({rate_mbps:.0f} Mbit/s, {rtt_ms:.0f} ms link)"),
        x_label="time (s)", y_label="elasticity",
        phases=[(o.start, o.name) for o in outcomes]) \
        if all_readings else "(no readings)"

    phase_rows = [{
        "phase": o.name,
        "start_s": o.start,
        "end_s": o.end,
        "mean_elasticity": round(o.mean_elasticity, 3),
        "contending_truth": o.is_elastic_truth,
        "probe_mbps": round(o.probe_throughput_mbps, 2),
        "cross_mbps": round(o.cross_throughput_mbps, 2),
    } for o in outcomes]
    series_rows = [{"time_s": round(r.time, 3),
                    "elasticity": round(r.elasticity, 4),
                    "mean_cross_rate_mbps":
                        round(to_mbps(r.mean_cross_rate), 3)}
                   for r in all_readings]

    parts = [
        chart,
        "",
        viz.table(
            [(r["phase"], f"{r['mean_elasticity']:.2f}",
              "yes" if r["contending_truth"] else "no",
              f"{r['probe_mbps']:.1f}", f"{r['cross_mbps']:.1f}")
             for r in phase_rows],
            header=("phase", "mean elasticity", "contending?",
                    "probe Mbit/s", "cross Mbit/s")),
        "",
        f"separation (min contending / max non-contending): "
        f"{separation:.2f}x",
    ]

    metrics = {
        "separation": separation,
        "min_elastic_phase_elasticity":
            min(elastic_means) if elastic_means else 0.0,
        "max_inelastic_phase_elasticity":
            max(inelastic_means) if inelastic_means else 0.0,
    }
    for o in outcomes:
        metrics[f"elasticity_{o.name}"] = o.mean_elasticity
    return ExperimentResult(
        experiment="fig3",
        text="\n".join(parts),
        metrics=metrics,
        tables={"phases": phase_rows, "elasticity_series": series_rows},
        elapsed_s=watch.elapsed,
    )

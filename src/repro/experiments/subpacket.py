"""Experiment E5: sub-packet-BDP regimes (§2.3, Chen et al.).

"on certain links where the bandwidth-delay product is less than one
packet, congestion control mechanisms can unfairly allocate bandwidth
over short (~20 seconds) timescales [...] primarily due to timeout
mechanisms that starve an arbitrary set of flows."

Setup: N backlogged Reno flows on a link whose BDP is below one packet
vs a comparison link with a healthy BDP.  We measure per-flow
throughput over 20-second windows and count starvation episodes
(windows in which a flow got less than 10% of its fair share) and
timeouts.  Expected shape: the sub-packet link shows frequent
starvation windows and many RTOs; the healthy link shows almost none.
"""

from __future__ import annotations

import numpy as np

from .. import viz
from ..analysis.fairness import jain_index
from ..cca.reno import RenoCca
from ..sim.engine import Simulator
from ..sim.network import dumbbell
from ..qdisc.fifo import DropTailQueue
from ..tcp.endpoint import Connection
from ..units import HEADER_BYTES, bdp_packets, kbps, mbps, ms
from .runner import ExperimentResult, Stopwatch, records_params


def _run_link(rate_bps: float, rtt: float, n_flows: int, duration: float,
              window: float, mss: int) -> dict:
    sim = Simulator()
    # Chen et al.'s regime needs a tiny buffer too (a couple packets).
    qdisc = DropTailQueue(limit_packets=4)
    path = dumbbell(sim, rate_bps, rtt, qdisc=qdisc)
    conns = [Connection(sim, path, f"f{i}", RenoCca(initial_cwnd=2.0),
                        mss=mss)
             for i in range(n_flows)]
    for c in conns:
        c.sender.set_infinite_backlog()

    # Per-window byte counts per flow.
    n_windows = int(duration / window)
    per_window = np.zeros((n_flows, n_windows))
    last = [0] * n_flows

    for w in range(n_windows):
        sim.run(until=(w + 1) * window)
        for i, c in enumerate(conns):
            got = c.receiver.received_bytes
            per_window[i, w] = got - last[i]
            last[i] = got

    fair = rate_bps * window / n_flows
    starved = int(np.sum(per_window < 0.1 * fair))
    total_windows = n_flows * n_windows
    totals = per_window.sum(axis=1)
    return {
        "bdp_packets": round(
            bdp_packets(rate_bps, rtt, mss + HEADER_BYTES), 3),
        "jain_overall": round(jain_index(totals), 4),
        "starved_windows": starved,
        "starved_fraction": round(starved / total_windows, 4),
        "timeouts": sum(c.sender.timeouts for c in conns),
        "utilization": round(float(totals.sum())
                             / (rate_bps * duration), 4),
    }


@records_params
def run(n_flows: int = 8, duration: float = 120.0, window: float = 20.0,
        subpacket_rate_kbps: float = 48.0, subpacket_rtt_ms: float = 120.0,
        healthy_rate_mbps: float = 10.0, mss: int = 1448
        ) -> ExperimentResult:
    """Compare a sub-packet-BDP link against a healthy one."""
    with Stopwatch() as watch:
        sub = _run_link(kbps(subpacket_rate_kbps), ms(subpacket_rtt_ms),
                        n_flows, duration, window, mss)
        sub["link"] = "sub-packet"
        healthy = _run_link(mbps(healthy_rate_mbps), ms(40.0),
                            n_flows, duration, window, mss)
        healthy["link"] = "healthy"
    rows = [sub, healthy]

    parts = [
        f"E5: {n_flows} Reno flows, {window:.0f} s windows over "
        f"{duration:.0f} s",
        "",
        viz.table(
            [(r["link"], r["bdp_packets"], r["jain_overall"],
              f"{r['starved_fraction']:.1%}", r["timeouts"])
             for r in rows],
            header=("link", "BDP (pkts)", "Jain (overall)",
                    "starved windows", "timeouts")),
        "",
        "Shape check: the sub-packet link should starve flows over "
        "20 s windows; the healthy link should not.",
    ]
    metrics = {
        "subpacket_bdp_packets": sub["bdp_packets"],
        "subpacket_starved_fraction": sub["starved_fraction"],
        "subpacket_timeouts": float(sub["timeouts"]),
        "healthy_starved_fraction": healthy["starved_fraction"],
        "healthy_timeouts": float(healthy["timeouts"]),
    }
    return ExperimentResult(
        experiment="subpacket",
        text="\n".join(parts),
        metrics=metrics,
        tables={"links": rows},
        elapsed_s=watch.elapsed,
    )

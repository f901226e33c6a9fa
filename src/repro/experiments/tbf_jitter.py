"""Experiment E4: token-bucket shaping causes jitter contention (§5.2).

"one popular method of bandwidth shaping is the token-bucket filter
[...] the resulting bursty transmission can cause jitter."

Setup: a latency-sensitive CBR stream (think live video) shares an
isolated per-user pipe with a bursty bulk flow.  The pipe is shaped
either by a token-bucket filter (with varying burst sizes) or by a
plain rate limiter (a Link at the shaped rate -- the "smooth" shaper
baseline).  Even though *bandwidth* isolation is perfect in all cases,
the CBR stream's delay jitter grows with the token-bucket burst size:
contention has moved from throughput to jitter, as §5.2 predicts.
"""

from __future__ import annotations

from .. import viz
from ..analysis.timeseries import DelayMeter, jitter_metrics
from ..cca.cubic import CubicCca
from ..qdisc.fifo import DropTailQueue
from ..qdisc.tbf import TokenBucketFilter
from ..sim.engine import Simulator
from ..sim.network import PathHandles
from ..sim.link import Link, Wire
from ..sim.node import Host
from ..tcp.endpoint import Connection
from ..traffic.cbr import CbrSource
from ..units import mbps, ms, to_ms
from .runner import ExperimentResult, Stopwatch, records_params


def _shaped_path(sim: Simulator, shaped_rate: float, line_rate: float,
                 rtt: float, burst_bytes: int | None) -> PathHandles:
    """A per-user pipe: line-rate link whose egress is shaped.

    ``burst_bytes=None`` means the smooth-shaper baseline (the link
    itself runs at the shaped rate); otherwise a TBF with that burst
    gates a line-rate link.
    """
    src, dst = Host("src"), Host("dst")
    if burst_bytes is None:
        bottleneck = Link(sim, shaped_rate, sink=dst,
                          qdisc=DropTailQueue(limit_packets=400),
                          delay=rtt / 2.0)
    else:
        tbf = TokenBucketFilter(rate=shaped_rate, burst=burst_bytes,
                                child=DropTailQueue(limit_packets=400))
        bottleneck = Link(sim, line_rate, sink=dst, qdisc=tbf,
                          delay=rtt / 2.0)
    reverse = Wire(sim, line_rate * 10, src, rtt / 2.0, "reverse")
    return PathHandles(sim=sim, entry=bottleneck, bottleneck=bottleneck,
                       src_host=src, dst_host=dst, reverse_entry=reverse,
                       rtt=rtt)


def _measure(burst_kb: float | None, shaped_mbps: float,
             line_mbps: float, rtt_ms_val: float,
             duration: float) -> dict:
    sim = Simulator()
    rtt = ms(rtt_ms_val)
    burst = int(burst_kb * 1000) if burst_kb is not None else None
    path = _shaped_path(sim, mbps(shaped_mbps), mbps(line_mbps), rtt,
                        burst)
    meter = DelayMeter(flow_filter=lambda f: f == "live")
    path.bottleneck.add_tap(meter.on_packet)

    live = CbrSource(sim, path, "live", rate=mbps(2.0), packet_size=1200)
    live.start()
    bulk = Connection(sim, path, "bulk", CubicCca())
    bulk.sender.set_infinite_backlog()
    sim.run(until=duration)

    _, delays = meter.as_arrays()
    metrics = jitter_metrics(delays[len(delays) // 5:])  # drop warmup
    label = "smooth" if burst_kb is None else f"tbf-{burst_kb:.0f}kB"
    return {
        "shaper": label,
        "burst_kb": burst_kb if burst_kb is not None else 0.0,
        "jitter_ms": round(to_ms(metrics["rfc3550_jitter"]), 4),
        "delay_span_ms": round(to_ms(metrics["delay_span_p99_p1"]), 4),
        "delay_p99_ms": round(to_ms(metrics["delay_p99"]), 4),
        "live_delivered_kb": round(live.delivered_bytes / 1000, 1),
    }


@records_params
def run(burst_sizes_kb: tuple = (15.0, 60.0, 250.0, 1000.0),
        shaped_mbps: float = 10.0, line_mbps: float = 1000.0,
        rtt_ms_val: float = 20.0,
        duration: float = 20.0) -> ExperimentResult:
    """Sweep token-bucket burst size against a smooth-shaper baseline."""
    with Stopwatch() as watch:
        rows = [_measure(None, shaped_mbps, line_mbps, rtt_ms_val,
                         duration)]
        rows += [_measure(b, shaped_mbps, line_mbps, rtt_ms_val, duration)
                 for b in burst_sizes_kb]

    # Token-bucket burstiness shows up in different statistics at
    # different burst sizes: medium bursts stretch the delay range
    # (p99-p1 span) while very large bursts whipsaw consecutive
    # packets (RFC 3550 interarrival jitter).  The degradation metric
    # is therefore the worst amplification across both, each relative
    # to the smooth-shaper baseline.
    def _ratio(key):
        base = rows[0][key]
        worst = max(r[key] for r in rows[1:])
        return worst / base if base > 0 else float("inf")

    amplification = max(_ratio("jitter_ms"), _ratio("delay_span_ms"))

    parts = [
        f"E4: jitter felt by a 2 Mbit/s live stream sharing a "
        f"{shaped_mbps:.0f} Mbit/s shaped pipe with a bulk Cubic flow",
        "",
        viz.table(
            [(r["shaper"], r["jitter_ms"], r["delay_span_ms"],
              r["delay_p99_ms"]) for r in rows],
            header=("shaper", "RFC3550 jitter (ms)",
                    "p99-p1 delay span (ms)", "p99 delay (ms)")),
        "",
        f"worst jitter amplification of token-bucket shaping vs the "
        f"smooth shaper (max over RFC 3550 and p99-p1 span): "
        f"{amplification:.1f}x",
    ]
    metrics = {
        "baseline_jitter_ms": rows[0]["jitter_ms"],
        "baseline_span_ms": rows[0]["delay_span_ms"],
        "span_amplification": amplification,
    }
    return ExperimentResult(
        experiment="tbf_jitter",
        text="\n".join(parts),
        metrics=metrics,
        tables={"jitter": rows},
        elapsed_s=watch.elapsed,
    )

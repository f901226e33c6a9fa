#!/usr/bin/env python3
"""Why video traffic doesn't contend (§2.2).

The paper argues most bytes are adaptive video whose demand is bounded
by the bitrate ladder, so it yields rather than contends.  We race an
ABR video stream against a backlogged Cubic download on links of
decreasing capacity and watch the video's ABR ladder -- not CCA
dynamics -- set its share.  Each race is one ``flows`` scenario of the
QA harness, with the video as its cross traffic.

Run:  python examples/video_vs_bulk.py
"""

from repro import viz
from repro.qa.scenario import FlowSpec, Scenario, run_scenario
from repro.units import to_mbps

DURATION = 40.0


def race(link_mbps: float) -> dict:
    outcome = run_scenario(Scenario(
        family="flows", rate_mbps=link_mbps, rtt_ms=30.0,
        qdisc="droptail", duration=DURATION, seed=0,
        buffer_multiplier=2.0, flows=(FlowSpec(cca="cubic"),),
        cross_traffic="video"), check_invariants=False)
    return {
        "link_mbps": link_mbps,
        "video_mbps": to_mbps(outcome.delivered["cross"] / DURATION),
        "bulk_mbps": to_mbps(outcome.delivered["flow-0"] / DURATION),
    }


def main() -> None:
    print(__doc__)
    rows = [race(cap) for cap in (100.0, 50.0, 25.0, 12.0)]
    print(viz.table(
        [(f"{r['link_mbps']:.0f}", f"{r['video_mbps']:.1f}",
          f"{r['bulk_mbps']:.1f}") for r in rows],
        header=("link Mb/s", "video Mb/s", "bulk Mb/s")))
    print()
    print("On fast links the video takes only what its top bitrate "
          "needs and the bulk flow absorbs the rest; the video's share "
          "is set by its application (ABR), not by Cubic-vs-Cubic "
          "contention.  Only on the slowest link do the two genuinely "
          "contend.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Quickstart: is the cross traffic on a path contending with you?

Probes a 48 Mbit/s, 100 ms emulated path (the paper's Figure 3 link)
carrying three kinds of cross traffic and prints the probe's verdicts
-- the paper's measurement technique in one call, the same one behind
``python -m repro quicklook``.

Run:  python examples/quickstart.py
"""

from repro.core.quicklook import run_quicklook


def probe_path(cross_traffic: str, duration: float = 30.0) -> None:
    look = run_quicklook(cross_traffic, duration=duration)
    print(f"cross traffic: {cross_traffic:8s} "
          f"mean elasticity: {look.mean_elasticity:6.2f}  "
          f"verdict: {look.category:12s}  "
          f"probe got {look.probe_throughput_mbps:.1f} Mbit/s")


def main() -> None:
    print(__doc__)
    # A backlogged Reno flow contends with the probe (confidently
    # "contending")...
    probe_path("reno")
    # ...constant-bitrate traffic confidently does not ("clean")...
    probe_path("cbr")
    # ...and adaptive video -- elastic only while a chunk is in
    # flight -- lands in the honest middle ("inconclusive").
    probe_path("video")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""An M-Lab-style passive study end to end (§3.1).

1. Generate a synthetic NDT dataset (2,000 flows) and save it as
   JSONL -- the stand-in for a BigQuery export.
2. Reload it and run the §3.1 analysis over the records as one
   shard: filter app-limited / receiver-limited / cellular flows,
   change-point the rest.
3. Also *collect* a handful of NDT records from live simulations
   (clean path, contended path, policed path) and push them through
   the same pipeline, showing the two data sources are interchangeable.

Run:  python examples/mlab_style_study.py
"""

import tempfile
from pathlib import Path

from repro import viz
from repro.cca import CubicCca, RenoCca
from repro.ndt import (NdtCollector, NdtDataset, SyntheticNdtGenerator,
                       analyse_flow, analyse_records)
from repro.qdisc import DropTailQueue, Policer
from repro.sim import Simulator, dumbbell
from repro.tcp import Connection
from repro.units import mbps, ms


def synthetic_study(workdir: Path) -> None:
    dataset = SyntheticNdtGenerator(seed=11).generate(2_000)
    store = workdir / "ndt.jsonl"
    dataset.save_jsonl(store)
    print(f"saved {len(dataset)} records to {store}")

    reloaded = NdtDataset.load_jsonl(store)
    result = analyse_records(reloaded.records)
    print(viz.table(
        [(name, count, f"{frac:.1%}")
         for name, count, frac in result.summary_rows()],
        header=("category", "flows", "fraction")))
    quality = result.detector_quality()
    print(f"level-shift => contention: precision "
          f"{quality['precision']:.2f}, recall {quality['recall']:.2f}, "
          f"{quality['contending_flows_lost_to_filters']:.0f} contending "
          f"flows were hidden by the filters")


def collect_record(scenario: str):
    """Run one simulated NDT test and return its record + analysis."""
    sim = Simulator()
    if scenario == "policed":
        qdisc = Policer(rate=mbps(10), burst=400_000,
                        child=DropTailQueue(limit_packets=200))
        path = dumbbell(sim, mbps(50), ms(30), qdisc=qdisc)
    else:
        path = dumbbell(sim, mbps(50), ms(30))
    collector = NdtCollector(sim, path, "ndt", access_type="cable",
                             cca=CubicCca())
    collector.start()
    if scenario == "contended":
        def competitor():
            conn = Connection(sim, path, "rival", RenoCca())
            conn.sender.set_infinite_backlog()
        sim.schedule(4.0, competitor)
    sim.run(until=10.5)
    record = collector.record(access_rate_bps=mbps(50))
    return record, analyse_flow(record)


def collected_study() -> None:
    print("\nRecords collected from live simulations:")
    rows = []
    for scenario in ("clean", "contended", "policed"):
        record, analysis = collect_record(scenario)
        rows.append((scenario, analysis.category.value,
                     analysis.num_level_shifts,
                     f"{record.mean_throughput_bps * 8 / 1e6:.1f}"))
    print(viz.table(rows, header=("scenario", "category", "level shifts",
                                  "mean Mbit/s")))
    print("The contended and policed tests both show level shifts -- "
          "the §3.1 ambiguity the paper's active technique resolves.")


def main() -> None:
    print(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        synthetic_study(Path(tmp))
    collected_study()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The measurement study the paper proposes (§3.2 + §5), in miniature.

Samples a population of emulated paths (rates, RTTs, queue
disciplines, cross-traffic types), points an elasticity probe at each,
aggregates the verdicts, and evaluates the paper's hypothesis: is CCA
contention common?  Because the paths are synthetic we also get ground
truth, so the study reports its own detector quality -- the part a
real wide-area deployment could never check.  This is
``repro run campaign_eval`` at 16 paths.

Run:  python examples/campaign_study.py   (~2-4 minutes)
"""

from repro.experiments import campaign_eval


def main() -> None:
    print(__doc__)
    print(campaign_eval.run(n_paths=16, seed=7, duration=25.0).text)


if __name__ == "__main__":
    main()

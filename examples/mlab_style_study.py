#!/usr/bin/env python3
"""An M-Lab-style passive study end to end (§3.1).

Figure 2's pipeline over 2,000 synthetic NDT flows: filter app-limited,
receiver-limited and cellular flows, change-point the rest, and score
"level shift => contention" against the synthetic ground truth.  The
full-size run is ``repro run fig2``.

Run:  python examples/mlab_style_study.py
"""

from repro.experiments import fig2


def main() -> None:
    print(__doc__)
    print(fig2.run(n_flows=2_000, seed=11, workers=1).text)


if __name__ == "__main__":
    main()

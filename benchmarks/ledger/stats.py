"""Order statistics and the compare rule the ledger uses everywhere.

Kept free of any ``repro`` import so ``compare`` works on two result
files from commits whose code no longer imports.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a latency tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile needs this many samples beyond it to be reported.
MIN_SAMPLES_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile) of ``values``.

    One value is its own quartiles; two or more use the same exclusive
    method as ``statistics.quantiles(values, n=4)``.
    """
    values = sorted(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return max(q1, values[0]), q2, min(q3, values[-1])


def lower_quartile(values) -> float:
    """The estimator for a timing: noise on a shared host only adds."""
    return quartiles(values)[0]


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (the value ``pct``% of samples are <=)."""
    values = sorted(values)
    if not values:
        raise ValueError("no values")
    rank = math.ceil(round(len(values) * pct / 100.0, 9))
    return values[min(len(values), max(1, rank)) - 1]


def tail_percentile(values) -> tuple[float, float]:
    """(value, pct) at the highest percentile of :data:`TAIL_PERCENTILES`
    that still has :data:`MIN_SAMPLES_BEYOND` samples beyond it.

    With fewer than twice that many samples no percentile qualifies and
    the median is returned, labelled 50.
    """
    n = len(values)
    chosen = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if round(n * (100.0 - pct) / 100.0, 9) >= MIN_SAMPLES_BEYOND:
            chosen = pct
    return percentile(values, chosen), chosen


def spread(values) -> float:
    """(max - min) / median; 0 for a single value or a zero median."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    return (max(values) - min(values)) / abs(med)


def iqr_share(values) -> float:
    """(upper - lower quartile) / median: the spread the contract gates."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a_runs, b_runs, better: str, bound: float) -> dict:
    """Compare one metric between run sets A (before) and B (after).

    ``worse``: B's median is worse than A's by more than ``bound`` (a
    share of A's median).  ``unresolved``: either set's spread over
    runs is wider than the bound *and* the two ranges overlap, so the
    medians cannot be told apart.  ``better``: improved by more than
    the bound.  Otherwise ``same``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher': {better!r}")
    med_a = statistics.median(a_runs)
    med_b = statistics.median(b_runs)
    if med_a:
        change = (med_b - med_a) / abs(med_a)
    else:
        change = 0.0 if med_b == med_a else float("inf")
    worse_by = change if better == "lower" else -change
    noisy = max(spread(a_runs), spread(b_runs)) > bound
    overlap = (min(a_runs) <= max(b_runs)
               and min(b_runs) <= max(a_runs))
    if noisy and overlap:
        result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    elif worse_by < -bound:
        result = "better"
    else:
        result = "same"
    return {"a": med_a, "b": med_b, "change": change, "bound": bound,
            "spread_a": spread(a_runs), "spread_b": spread(b_runs),
            "verdict": result}

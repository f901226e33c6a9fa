"""Fairness and harm metrics for bandwidth allocations.

Implements the metrics the paper's introduction surveys: Jain's
fairness index (Jain, Chiu & Hawe 1984), the throughput-share view, and
Ware et al.'s "harm" (HotNets '19), which compares a flow's performance
against what it would have achieved alone.
"""

from __future__ import annotations

import numpy as np

from ..errors import AnalysisError


def jain_index(allocations) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1].

    1.0 means perfectly equal; 1/n means one flow has everything.
    """
    x = np.asarray(allocations, dtype=float)
    if len(x) == 0:
        raise AnalysisError("need at least one allocation")
    if np.any(x < 0):
        raise AnalysisError("allocations must be non-negative")
    squares = float(np.sum(x * x))
    if squares < np.finfo(float).tiny:
        # x * x went subnormal (or zero) and lost its precision; the
        # index does not change with scale, so take it of x / max(x).
        top = float(x.max())
        if top == 0:
            return 1.0  # all zero: degenerately equal
        x = x / top
        squares = float(np.sum(x * x))
    return float(np.sum(x)) ** 2 / (len(x) * squares)


def throughput_shares(allocations) -> list[float]:
    """Each flow's fraction of the total."""
    x = np.asarray(allocations, dtype=float)
    total = float(np.sum(x))
    if total <= 0:
        raise AnalysisError("total allocation must be positive")
    return [float(v) / total for v in x]


def harm(solo_performance: float, contended_performance: float) -> float:
    """Ware et al.'s harm metric in [0, 1+) for a more-is-better metric
    (throughput): harm = (solo - contended) / solo.

    0 means no harm; 1 means the metric was destroyed entirely.
    Negative values (the flow did *better* under contention) are
    clamped to 0.
    """
    if solo_performance <= 0 or contended_performance < 0:
        raise AnalysisError("performances must be positive")
    value = (solo_performance - contended_performance) / solo_performance
    return max(0.0, float(value))


def max_min_fair_allocation(demands, capacity: float) -> list[float]:
    """Water-filling max-min fair allocation of ``capacity`` among
    ``demands`` -- what ideal fair queueing would give each flow.

    Flows demanding less than their fair share keep their demand; the
    residue is split among the rest, recursively.
    """
    d = [float(v) for v in demands]
    if any(v < 0 for v in d):
        raise AnalysisError("demands must be non-negative")
    if capacity < 0:
        raise AnalysisError("capacity must be non-negative")
    alloc = [0.0] * len(d)
    remaining = capacity
    active = list(range(len(d)))
    while active and remaining > 1e-12:
        share = remaining / len(active)
        satisfied = [i for i in active if d[i] <= share + 1e-15]
        if not satisfied:
            for i in active:
                alloc[i] += share
            remaining = 0.0
            break
        for i in satisfied:
            alloc[i] = d[i]
            remaining -= d[i]
            active.remove(i)
    # Note: the loop re-splits after each satisfaction round.
    return alloc

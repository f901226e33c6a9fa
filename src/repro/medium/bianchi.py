"""Bianchi's saturation model, homogeneous and heterogeneous.

Bianchi (JSAC 2000) models saturated CSMA/CA as a renewal process over
contention slots: each backlogged station transmits in a slot with a
stationary probability tau determined by its contention-window ladder
and the collision probability it observes, and the two are coupled by
a fixed point::

    tau_i = 2 (1 - 2 p_i) /
            ((1 - 2 p_i)(W_i + 1) + p_i W_i (1 - (2 p_i)^{m_i}))
    p_i   = 1 - prod_{j != i} (1 - tau_j)

with ``W_i = cw_min_i + 1`` and ``m_i = log2((cw_max_i+1)/W_i)``
backoff-doubling stages (retries are unlimited; the window saturates
at ``cw_max``).  The packet DES in :mod:`repro.sim.medium` implements
exactly this ladder, so the closed form here is its ground truth, and
the fluid :class:`~repro.fluid.queue.ContentionBottleneck` uses the
same solver as its airtime law -- one model, three consumers.

Timing: the DES spends, per contention round, one SIFS, then
``aifsn + backoff`` idle slots, then one transmission (payload
serialization plus the fixed ACK overhead).  Equal ``aifsn`` across
stations shifts every countdown equally, so it folds into the busy
time exactly like Bianchi's DIFS term::

    E[T] = P_idle * slot + (1 - P_idle) * (T_payload + overhead
                                           + SIFS + aifsn * slot)

For mixed-priority media the per-class AIFS difference is *not*
captured by the fixed point (Bianchi has no AIFS); the solver models
priority through the contention windows only, which dominates.  The
fluid/packet agreement oracle bounds the residual error.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import ConfigError
from ..units import ordered_sum
from .config import PER_TX_OVERHEAD, SIFS, SLOT_TIME, MacClass

#: Fixed-point iteration controls (damped; converges in tens of steps).
_MAX_ITER = 2000
_TOL = 1e-12
_DAMP = 0.5


def _stages(cls: MacClass) -> float:
    """Backoff-doubling stages between cw_min and cw_max."""
    return math.log2((cls.cw_max + 1) / (cls.cw_min + 1))


def _tau_of_p(p: float, cls: MacClass) -> float:
    """Per-station transmit probability given collision probability."""
    w = cls.cw_min + 1
    m = _stages(cls)
    if p >= 1.0:
        p = 1.0 - 1e-12
    if abs(1.0 - 2.0 * p) < 1e-9:
        # The p = 1/2 removable singularity: take the analytic limit.
        return 2.0 / (w + 1.0 + 0.5 * m * w)
    num = 2.0 * (1.0 - 2.0 * p)
    den = (1.0 - 2.0 * p) * (w + 1.0) + p * w * (1.0 - (2.0 * p) ** m)
    return num / den


def transmit_probabilities(classes: Sequence[MacClass]) -> list[float]:
    """Solve the coupled fixed point for per-station tau.

    ``classes`` lists each saturated station's access class; the
    homogeneous case is just n copies of the same class.
    """
    n = len(classes)
    if n < 1:
        raise ConfigError("need at least one station")
    if n == 1:
        return [_tau_of_p(0.0, classes[0])]
    taus = [_tau_of_p(0.0, cls) for cls in classes]
    for _ in range(_MAX_ITER):
        worst = 0.0
        prod_all = 1.0
        for t in taus:
            prod_all *= (1.0 - t)
        for i, cls in enumerate(classes):
            others = prod_all / (1.0 - taus[i]) if taus[i] < 1.0 else 0.0
            p_i = 1.0 - others
            new = _tau_of_p(p_i, cls)
            step = _DAMP * (new - taus[i])
            worst = max(worst, abs(step))
            taus[i] += step
        if worst < _TOL:
            break
    return taus


def _cycle(classes: Sequence[MacClass], payload_time: float
           ) -> tuple[list[float], float]:
    """Per-station success probabilities and mean renewal-slot time."""
    if payload_time <= 0:
        raise ConfigError(f"payload_time must be positive: {payload_time}")
    taus = transmit_probabilities(classes)
    p_idle = 1.0
    for t in taus:
        p_idle *= (1.0 - t)
    succ = []
    for i, t in enumerate(taus):
        others = p_idle / (1.0 - t) if t < 1.0 else 0.0
        succ.append(t * others)
    p_busy = 1.0 - p_idle
    aifsn = min(cls.aifsn for cls in classes)
    t_busy = payload_time + PER_TX_OVERHEAD + SIFS + aifsn * SLOT_TIME
    mean_t = p_idle * SLOT_TIME + p_busy * t_busy
    return succ, mean_t


def airtime_shares(classes: Sequence[MacClass], payload_time: float
                   ) -> list[float]:
    """Per-station goodput as a fraction of the raw link rate.

    ``sum(shares)`` is the medium's saturation efficiency: strictly
    below 1 (backoff slots, collisions, and MAC overhead all burn
    airtime), decreasing in station count past the optimum.
    """
    succ, mean_t = _cycle(classes, payload_time)
    return [s * payload_time / mean_t for s in succ]


def saturation_throughput(n_stations: int, rate: float,
                          payload_bytes: float, cls: MacClass) -> float:
    """Total saturated goodput (bytes/second), homogeneous stations.

    This is the closed form the ``MediumLink`` validation tests pin the
    DES against for n in {2, 5, 10}.
    """
    if n_stations < 1:
        raise ConfigError(f"need >= 1 station: {n_stations}")
    if rate <= 0:
        raise ConfigError(f"rate must be positive: {rate}")
    shares = airtime_shares([cls] * n_stations, payload_bytes / rate)
    return ordered_sum(shares) * rate


def expected_service_time(classes: Sequence[MacClass], payload_time: float,
                          station: int = 0) -> float:
    """Mean time between station ``station``'s successful transmissions.

    The MAC-layer head-of-line service time under saturation -- the
    fluid backend's per-packet contention delay.
    """
    succ, mean_t = _cycle(classes, payload_time)
    if succ[station] <= 0.0:
        return float("inf")
    return mean_t / succ[station]

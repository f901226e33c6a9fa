"""Analytic TCP throughput models.

The testbed-analysis literature the paper surveys in §3.1 (e.g. Philip
et al., IMC '21, "Revisiting TCP Congestion Control Throughput Models")
evaluates CCAs against closed-form models.  We implement the two
classics and use them to validate the simulator's Reno implementation
(benchmark P4): a substrate whose Reno matches the Mathis model is
credible ground for the paper's contention experiments.

* :func:`mathis_throughput` -- the SQRT model (Mathis et al. 1997):
  ``T = (MSS / RTT) * C / sqrt(p)``.
* :func:`padhye_throughput` -- the PFTK model (Padhye et al. 1998),
  adding timeout effects.
* :func:`reno_steady_state_loss_rate` -- the deterministic sawtooth
  inverse (what loss rate a link must impose for a window ``W``).
"""

from __future__ import annotations

import math

from ..errors import AnalysisError

#: Mathis constant for periodic loss with delayed-ack disabled.
MATHIS_C = math.sqrt(3.0 / 2.0)

#: PFTK's retransmission timeout T0 (seconds), the RTO floor.
PADHYE_RTO = 0.2


def mathis_throughput(mss: int, rtt: float, loss_rate: float) -> float:
    """Mathis SQRT model throughput in bytes/second.

    Valid for small loss rates where timeouts are negligible.
    """
    if mss <= 0 or rtt <= 0:
        raise AnalysisError("mss and rtt must be positive")
    if not 0 < loss_rate < 1:
        raise AnalysisError(f"loss_rate must be in (0, 1): {loss_rate}")
    return (mss / rtt) * MATHIS_C / math.sqrt(loss_rate)


def padhye_throughput(mss: int, rtt: float, loss_rate: float) -> float:
    """PFTK full model throughput in bytes/second, with no receiver
    window clamp.

    T = MSS / (RTT*sqrt(2bp/3) + T0*min(1, 3*sqrt(3bp/8))*p*(1+32p^2))

    with b = 1 (no delayed acks in our receiver) and T0 =
    :data:`PADHYE_RTO`.
    """
    if mss <= 0 or rtt <= 0:
        raise AnalysisError("mss and rtt must be positive")
    if not 0 < loss_rate < 1:
        raise AnalysisError(f"loss_rate must be in (0, 1): {loss_rate}")
    b = 1.0
    p = loss_rate
    denom = (rtt * math.sqrt(2.0 * b * p / 3.0)
             + PADHYE_RTO * min(1.0, 3.0 * math.sqrt(3.0 * b * p / 8.0))
             * p * (1.0 + 32.0 * p * p))
    return mss / denom


def reno_steady_state_loss_rate(window_packets: float) -> float:
    """Loss rate implied by a deterministic Reno sawtooth peaking at
    ``window_packets``: one loss per 3/8 W^2 delivered packets."""
    if window_packets <= 0:
        raise AnalysisError("window must be positive")
    return 1.0 / (3.0 / 8.0 * window_packets ** 2)

"""Mahimahi link-trace parsing and synthesis.

Mahimahi traces are text files with one integer millisecond timestamp
per line; each line is an opportunity to deliver one MTU-sized packet.
We parse that format and synthesize traces for constant rates and
random-walk cellular-style links.
"""

from __future__ import annotations

import math
import numpy as np

from ..errors import TraceFormatError
from ..units import mbps

#: Bytes delivered per trace opportunity (Mahimahi's MTU).
OPPORTUNITY_BYTES = 1514


def parse_trace(text: str) -> list[float]:
    """Parse Mahimahi trace text into a list of millisecond timestamps."""
    timestamps: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError as exc:
            raise TraceFormatError(
                f"line {lineno}: expected integer milliseconds, got {line!r}"
            ) from exc
        if value < 0:
            raise TraceFormatError(f"line {lineno}: negative timestamp")
        if timestamps and value < timestamps[-1]:
            raise TraceFormatError(
                f"line {lineno}: timestamps must be non-decreasing")
        timestamps.append(float(value))
    if not timestamps:
        raise TraceFormatError("trace contains no opportunities")
    if timestamps[-1] <= 0:
        raise TraceFormatError("trace period must be positive")
    return timestamps


def constant_rate_trace(rate_mbps: float) -> list[float]:
    """Opportunities for a constant ``rate_mbps`` link over a one-second
    period.

    >>> len(constant_rate_trace(12.112))  # 1 opportunity per ms
    1000
    """
    if rate_mbps <= 0:
        raise TraceFormatError(f"rate must be positive: {rate_mbps}")
    count = max(1, int(round(mbps(rate_mbps) / OPPORTUNITY_BYTES)))
    step = 1000.0 / count
    return [round((i + 1) * step, 3) for i in range(count)]


#: Milliseconds between the knots of :func:`cellular_trace`'s walk.
CELLULAR_STEP_MS = 100


def cellular_trace(mean_mbps: float, duration_ms: int = 10_000,
                   volatility: float = 0.3, seed: int = 0) -> list[float]:
    """A random-walk trace mimicking cellular capacity variation.

    The instantaneous rate follows a geometric random walk around
    ``mean_mbps`` with reflection, re-sampled every
    :data:`CELLULAR_STEP_MS` and linearly interpolated per millisecond
    between samples -- abrupt rate steps every 100 ms would plant a
    spectral comb at 10 Hz and its subharmonics, which an elasticity
    probe could mistake for pulse-reactive cross traffic.
    """
    if mean_mbps <= 0:
        raise TraceFormatError(f"mean rate must be positive: {mean_mbps}")
    rng = np.random.default_rng(seed)
    low, high = math.log(mean_mbps / 8.0), math.log(mean_mbps * 4.0)
    n_knots = int(math.ceil(duration_ms / CELLULAR_STEP_MS)) + 1
    log_rate = math.log(mean_mbps)
    knots = []
    for _ in range(n_knots):
        knots.append(log_rate)
        log_rate += rng.normal(
            0.0, volatility * math.sqrt(CELLULAR_STEP_MS / 1000.0))
        log_rate = min(max(log_rate, low), high)

    out: list[float] = []
    carry = 0.0
    for t_ms in range(int(duration_ms)):
        pos = t_ms / CELLULAR_STEP_MS
        idx = min(int(pos), n_knots - 2)
        frac = pos - idx
        rate = math.exp(knots[idx] * (1 - frac) + knots[idx + 1] * frac)
        carry += mbps(rate) / 1000.0  # bytes deliverable this ms
        while carry >= OPPORTUNITY_BYTES:
            carry -= OPPORTUNITY_BYTES
            out.append(float(t_ms + 1))
    if not out:
        out.append(float(duration_ms))
    return out

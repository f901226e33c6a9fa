"""Constant-bitrate (non-reactive) sender.

Models an unresponsive flow: a fixed pacing rate, an effectively
unlimited window, and no reaction to loss, delay, or ECN.  Used as the
"CBR UDP" cross traffic of the paper's Figure 3 when the stream runs
over the transport endpoint; :mod:`repro.traffic.cbr` additionally
offers a raw packet source that bypasses the transport entirely.
"""

from __future__ import annotations

from ..errors import ConfigError
from .base import CongestionControl


class CbrCca(CongestionControl):
    """Fixed-rate sender ignoring all congestion signals.

    Args:
        rate: pacing rate, bytes/second.
    """

    name = "cbr"

    def __init__(self, rate: float):
        if rate <= 0:
            raise ConfigError(f"rate must be positive: {rate}")
        self.rate = float(rate)

    @property
    def cwnd(self) -> float:
        return 1e9  # never window-limited

    @property
    def pacing_rate(self) -> float:
        return self.rate

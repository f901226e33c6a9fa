"""Workload generators: the traffic mixes of §2.2 and Figure 3."""

from .backlogged import BackloggedFlow
from .base import TrafficSource
from .cbr import CbrSource
from .mix import (CROSS_TRAFFIC_IS_ELASTIC, CROSS_TRAFFIC_REGISTRY,
                  FIGURE3_PHASES, IdleSource, Phase, make_cross_traffic)
from .poisson import FlowRecord, PoissonShortFlows
from .video import LADDER_MBPS, VideoStats, VideoStream

__all__ = [
    "TrafficSource", "BackloggedFlow", "VideoStream", "VideoStats",
    "LADDER_MBPS", "PoissonShortFlows", "FlowRecord", "CbrSource",
    "IdleSource", "Phase", "FIGURE3_PHASES", "CROSS_TRAFFIC_REGISTRY",
    "CROSS_TRAFFIC_IS_ELASTIC", "make_cross_traffic",
]

"""One-call elasticity quicklook, backing :func:`repro.quicklook_elasticity`."""

from __future__ import annotations

from dataclasses import dataclass

from ..units import to_mbps
from .campaign import PathSpec, run_path


@dataclass(frozen=True)
class QuicklookResult:
    """Summary of a single-path elasticity probe run."""

    cross_traffic: str
    mean_elasticity: float
    verdict: bool
    category: str
    probe_throughput_mbps: float
    duration: float


def run_quicklook(cross_traffic: str = "reno", duration: float = 30.0,
                  rate_mbps: float = 48.0, rtt_ms: float = 100.0,
                  seed: int = 0, **path_axes) -> QuicklookResult:
    """Probe one emulated path carrying ``cross_traffic``.

    ``path_axes`` are :class:`~repro.core.campaign.PathSpec`'s late
    axes: ``medium="csma-<n>"`` (optionally "-prio") swaps the
    bottleneck queue for a CSMA/CA shared medium, on which the probe
    and each cross flow contend as separate stations.  The path is the
    one :func:`~repro.core.campaign.run_path` builds for a droptail
    ``PathSpec`` of this shape, 1xBDP buffer included.
    """
    result = run_path(PathSpec(rate_mbps=rate_mbps, rtt_ms=rtt_ms,
                               qdisc="droptail",
                               cross_traffic=cross_traffic, seed=seed,
                               **path_axes), duration=duration)
    return QuicklookResult(
        cross_traffic=cross_traffic,
        mean_elasticity=result.report.mean_elasticity,
        verdict=result.verdict.contending,
        category=result.verdict.category,
        probe_throughput_mbps=to_mbps(result.report.mean_throughput),
        duration=duration,
    )

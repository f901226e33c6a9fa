"""The fluid tick loop: flows + bottleneck, O(flows) per tick.

:class:`FluidModel` owns a set of :class:`~repro.fluid.flows.FluidFlow`
objects and one bottleneck from :mod:`repro.fluid.queue`.  Each tick
(default 5 ms) it collects every flow's sending rate into a list,
pushes the resulting byte cohort through the bottleneck, and feeds
each flow its service rate, its queueing delay, and edge-triggered
loss/mark signals.  There is no event heap, no packets, and no
per-packet Python work -- a 20-second scenario is 4000 ticks
regardless of link speed.  The per-tick state is plain floats: a model
holds at most six flows, and at that size numpy's per-call overhead
costs several times the arithmetic (DESIGN.md section 7); numpy is
used only to draw the seeded jitter stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..errors import ConfigError
from ..units import DEFAULT_PACKET_SIZE
from .flows import FluidFlow
from .queue import build_bottleneck

#: Integration step (seconds): well below the shortest pulse period
#: (200 ms at f_p = 5 Hz) and the smallest base RTT (20 ms).
DT = 0.005


def _jitter_seed(seed: int) -> int:
    """Stable child seed (same scheme as :mod:`repro.sim.jitter`)."""
    digest = hashlib.sha256(f"jitter:{seed}:fluid".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


class FluidModel:
    """Fixed-step fluid simulation of one bottleneck.

    Args:
        flows: the flows sharing the bottleneck (order fixes the
            flow index).
        rate: bottleneck link rate (bytes/second).
        buffer_bytes: bottleneck buffer (bytes).
        qdisc: one of :data:`repro.qa.scenario.QDISC_NAMES`.
        ecn: bottleneck marks instead of early-dropping (RED only).
        jitter: endpoint-timing-jitter amplitude; each tick a masked
            flow's offered rate is multiplied by a seeded factor in
            ``[1 - a, 1 + a]`` -- the fluid analogue of the packet
            backend's pacing-clock perturbation (ACK-clock delays
            have no fluid counterpart; see :mod:`repro.sim.jitter`).
        jitter_seed: seed for the jitter stream (scenario seed).
        jitter_mask: per-flow booleans selecting which flows jitter
            touches (None = all); cross traffic is excluded to match
            the packet backend's "measured endpoints only" semantics.
        medium: optional :class:`~repro.medium.config.MediumSpec`; the
            bottleneck becomes a Bianchi-law
            :class:`~repro.fluid.queue.ContentionBottleneck` and every
            flow's delay feedback is per-station contention delay.
    """

    def __init__(self, flows: list[FluidFlow], rate: float,
                 buffer_bytes: float, qdisc: str = "droptail",
                 ecn: bool = False,
                 jitter: float = 0.0, jitter_seed: int = 0,
                 jitter_mask=None, medium=None):
        if not flows:
            raise ConfigError("fluid model needs at least one flow")
        if jitter < 0:
            raise ConfigError(f"jitter must be >= 0: {jitter}")
        self.flows = list(flows)
        self.rate = rate
        self.dt = DT
        self.bottleneck, self.effective_rate = build_bottleneck(
            qdisc, len(flows), rate, buffer_bytes, ecn=ecn,
            medium=medium)
        self.now = 0.0
        self.ticks = 0
        self._jitter_rng = (np.random.default_rng(_jitter_seed(jitter_seed))
                            if jitter > 0 else None)
        if jitter_mask is None:
            jitter_mask = [True] * len(flows)
        elif len(jitter_mask) != len(flows):
            raise ConfigError("jitter_mask length != number of flows")
        self._jitter_scale = [jitter * float(m) for m in jitter_mask]

    def run(self, duration: float) -> None:
        """Advance the model to ``duration`` seconds."""
        dt = self.dt
        flows = self.flows
        tick = self.bottleneck.tick
        rng, scale = self._jitter_rng, self._jitter_scale
        steps = int(round((duration - self.now) / dt))
        now = self.now
        for _ in range(steps):
            if rng is None:
                arrivals = [f.rate * dt if now >= f.start else 0.0
                            for f in flows]
            else:
                # One vector draw per tick keeps the seeded stream.
                arrivals = [(f.rate if now >= f.start else 0.0)
                            * (1.0 + a * (2.0 * u - 1.0)) * dt
                            for f, a, u in zip(
                                flows, scale,
                                rng.random(len(flows)).tolist())]
            served, dropped, marked, delays = tick(arrivals, dt)
            for flow, got, delay, lost, mark in zip(flows, served, delays,
                                                    dropped, marked):
                if now >= flow.start:
                    delivered_rate = got / dt
                    flow.delivered_bytes += delivered_rate * dt
                    flow.advance(now, dt, delivered_rate, delay,
                                 lost > 0.0, mark > 0.0)
            now += dt
        self.now = now
        self.ticks += steps

    def qdisc_stats(self) -> dict[str, float]:
        """Counters shaped like ``ScenarioOutcome.qdisc_stats``.

        Packet counts are byte totals over the reference packet size;
        they are self-consistent (enqueued = dequeued + residual) and
        deterministic, not packet-accurate.
        """
        b = self.bottleneck
        size = float(DEFAULT_PACKET_SIZE)
        residual = b.backlog
        return {
            "enqueued": round(b.accepted_bytes / size, 3),
            "dequeued": round(b.served_bytes / size, 3),
            "dequeued_bytes": round(b.served_bytes, 3),
            "drops": round(b.dropped_bytes / size, 3),
            "dropped_bytes": round(b.dropped_bytes, 3),
            "marks": round(b.marked_bytes / size, 3),
            "residual_packets": round(residual / size, 3),
            "residual_bytes": round(residual, 3),
        }

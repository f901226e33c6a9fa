"""Time-series latency probes (TSLP).

The paper's §4 discusses Dhamdhere et al.'s TSLP technique (SIGCOMM
'18): send periodic small latency probes across a link and flag
sustained queueing-delay inflation as congestion.  The paper's point:
TSLP "cannot discriminate between cases where individual flows contend
for bandwidth and cases where aggregates consisting of shorter and
application-limited flows overwhelm a given link" -- both inflate
delay.  Experiment E9 demonstrates exactly that, side by side with the
elasticity probe, which *can* discriminate.

Implementation: a :class:`TslpProber` injects tiny probe packets on the
forward path; a responder at the destination bounces a reply over the
(uncongested) reverse path, echoing the send timestamp, so each probe
yields one RTT sample dominated by forward queueing delay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError, ConfigError
from ..sim.engine import Simulator
from ..sim.network import PathHandles
from ..sim.packet import Packet, PacketKind, make_ack


class TslpProber:
    """Periodic latency prober over a path.

    Args:
        sim: the simulator.
        path: the path whose bottleneck queueing is being watched.
        interval: probe spacing (seconds); TSLP uses sparse probes so
            the measurement itself adds negligible load.
    """

    #: the prober's flow identifier
    flow_id = "tslp"
    #: probe packet size (bytes)
    probe_size = 64

    def __init__(self, sim: Simulator, path: PathHandles,
                 interval: float = 0.1):
        if interval <= 0:
            raise ConfigError(f"interval must be positive: {interval}")
        self.sim = sim
        self.path = path
        self.interval = interval
        self.times: list[float] = []
        self.rtts: list[float] = []
        self._running = False
        self._seq = 0
        path.dst_host.attach(self.flow_id, self._bounce)
        path.src_host.attach(self.flow_id, self._on_reply)

    def start(self) -> None:
        self._running = True
        self._send_probe()

    def stop(self) -> None:
        self._running = False

    def _send_probe(self) -> None:
        if not self._running:
            return
        probe = Packet(self.flow_id, PacketKind.DATA,
                       size=self.probe_size, seq=self._seq,
                       end_seq=self._seq + 1)
        probe.sent_time = self.sim.now
        self._seq += 1
        self.path.entry.send(probe)
        self.sim.schedule(self.interval, self._send_probe)

    def _bounce(self, packet: Packet) -> None:
        reply = make_ack(self.flow_id, ack=packet.end_seq)
        reply.ack_of_sent_time = packet.sent_time
        self.path.reverse_entry.send(reply)

    def _on_reply(self, packet: Packet) -> None:
        if packet.ack_of_sent_time is None:
            return
        self.times.append(self.sim.now)
        self.rtts.append(self.sim.now - packet.ack_of_sent_time)

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.times), np.asarray(self.rtts)


@dataclass(frozen=True)
class CongestionEpisodes:
    """TSLP analysis result.

    Attributes:
        baseline_rtt: the uncongested floor (low quantile of samples).
        congested_fraction: fraction of samples with inflated delay.
        episodes: (start, end) times of sustained inflation.
    """

    baseline_rtt: float
    congested_fraction: float
    episodes: tuple[tuple[float, float], ...]

    @property
    def congested(self) -> bool:
        """TSLP's verdict: was the link congested a meaningful
        fraction of the time?"""
        return self.congested_fraction > 0.1


#: quantile of the RTT samples taken as the uncongested floor
BASELINE_QUANTILE = 0.1
#: seconds above the floor that count as congested
INFLATION_THRESHOLD = 0.005
#: minimum sustained duration (seconds) of an episode
MIN_EPISODE = 1.0


def detect_congestion_episodes(times, rtts) -> CongestionEpisodes:
    """Dhamdhere-style analysis: flag periods of inflated queueing delay
    (:data:`INFLATION_THRESHOLD` above the :data:`BASELINE_QUANTILE`
    floor) sustained for at least :data:`MIN_EPISODE` seconds."""
    t = np.asarray(times, dtype=float)
    r = np.asarray(rtts, dtype=float)
    if len(t) != len(r) or len(t) < 5:
        raise AnalysisError("need at least five aligned samples")
    baseline = float(np.quantile(r, BASELINE_QUANTILE))
    inflated = r > baseline + INFLATION_THRESHOLD

    episodes: list[tuple[float, float]] = []
    start: float | None = None
    for time, bad in zip(t, inflated):
        if bad and start is None:
            start = float(time)
        elif not bad and start is not None:
            if time - start >= MIN_EPISODE:
                episodes.append((start, float(time)))
            start = None
    if start is not None and t[-1] - start >= MIN_EPISODE:
        episodes.append((start, float(t[-1])))

    return CongestionEpisodes(
        baseline_rtt=baseline,
        congested_fraction=float(np.mean(inflated)),
        episodes=tuple(episodes),
    )

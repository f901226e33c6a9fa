"""Fluid flow laws: per-flow rate dynamics for every CCA and source.

Each flow exposes ``rate`` (its current sending rate, bytes/second) and
``advance(now, dt, delivered_rate, queue_delay, loss, ecn_mark)``,
whose last four arguments are what the bottleneck did to the flow this
tick (see :meth:`FluidFlow.advance`).  Window-based CCAs keep
a congestion window in bytes and derive the rate as ``cwnd / rtt``
with ``rtt = base_rtt + queue_delay`` -- which is exactly what couples
them to the probe's pulses: an up-pulse grows the queue, the queue
grows every elastic flow's RTT, and their rates respond within one
tick.  Inelastic sources ignore the feedback.

Loss feedback is edge-triggered with a one-RTT refractory per flow
(one multiplicative decrease per overflow episode), mirroring how a
packet CCA reacts once per loss event, not once per lost packet.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import ConfigError
from ..units import DEFAULT_MSS, mbps

#: Cross-traffic rates mirrored from :mod:`repro.traffic.mix`.
CBR_CROSS_RATE = mbps(12)
POISSON_OFFERED_RATE = 30.0 * 50_000.0  # flows/s x mean size

#: BBR's pacing-gain cycle (one phase per RTT).
BBR_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


class FluidFlow:
    """Base: a rate source that may react to feedback."""

    def __init__(self, flow_id: str, base_rtt: float, start: float = 0.0):
        self.flow_id = flow_id
        self.base_rtt = base_rtt
        self.start = start
        self.rate = 0.0
        self.delivered_bytes = 0.0

    def advance(self, now: float, dt: float, delivered_rate: float,
                queue_delay: float, loss: bool, ecn_mark: bool) -> None:
        """React to one tick of feedback from the bottleneck (the
        model has already credited ``delivered_bytes``).

        Args:
            delivered_rate: the flow's service rate this tick (bytes/s).
            queue_delay: the queueing delay the flow sees (seconds).
            loss: the flow lost bytes to a drop this tick.
            ecn_mark: the flow's bytes were ECN-marked this tick.
        """


class WindowFlow(FluidFlow):
    """AIMD-family window dynamics: ``rate = cwnd / rtt``.

    ``kind`` selects the increase/decrease law:

    - ``reno`` / ``newreno`` / ``dctcp``: one MSS per RTT, halve on
      loss (DCTCP without ECN marks degenerates to Reno; with marks it
      cuts by a gentler fixed fraction, standing in for the alpha
      estimator).
    - ``cubic``: the cubic window curve around the last loss point
      (C = 0.4, beta = 0.7, MSS units).
    - ``vegas`` / ``copa`` / ``ledbat``: delay-based additive control
      around a target amount of self-induced queueing.
    """

    def __init__(self, flow_id: str, base_rtt: float, kind: str = "reno",
                 start: float = 0.0):
        super().__init__(flow_id, base_rtt, start=start)
        self.kind = kind
        self.mss = float(DEFAULT_MSS)
        self.cwnd = 10.0 * self.mss
        self._last_cut = float("-inf")
        # Cubic state (MSS units).
        self._w_max = self.cwnd / self.mss
        self._epoch_start: float | None = None
        # Delay-based targets (seconds of self-queueing).
        self._delay_lo, self._delay_hi = {
            "vegas": (0.004, 0.010),
            "copa": (0.010, 0.025),
            "ledbat": (0.060, 0.100),
        }.get(kind, (0.0, 0.0))

    def _cut(self, now: float, rtt: float, factor: float) -> None:
        if now - self._last_cut < rtt:
            return
        self._last_cut = now
        self._w_max = self.cwnd / self.mss
        self._epoch_start = None
        self.cwnd = max(2.0 * self.mss, self.cwnd * factor)

    def advance(self, now, dt, delivered_rate, queue_delay, loss,
                ecn_mark) -> None:
        rtt = self.base_rtt + queue_delay
        if loss:
            beta = 0.7 if self.kind == "cubic" else 0.5
            self._cut(now, rtt, beta)
        elif ecn_mark and self.kind == "dctcp":
            self._cut(now, rtt, 0.8)
        if self.kind == "cubic":
            if self._epoch_start is None:
                self._epoch_start = now
            w0 = self.cwnd / self.mss
            k = ((self._w_max * 0.3) / 0.4) ** (1.0 / 3.0)
            t = now - self._epoch_start + dt
            w = 0.4 * (t - k) ** 3 + self._w_max
            self.cwnd = max(2.0 * self.mss,
                            max(w, w0) * self.mss)
        elif self._delay_hi > 0.0:
            # Delay-based: grow below the low watermark, shrink above
            # the high one, hold in between.
            if queue_delay < self._delay_lo:
                self.cwnd += self.mss * dt / rtt
            elif queue_delay > self._delay_hi:
                self.cwnd = max(2.0 * self.mss,
                                self.cwnd - self.mss * dt / rtt)
        else:
            self.cwnd += self.mss * dt / rtt
        self.rate = self.cwnd / rtt


class BbrFlow(FluidFlow):
    """BBRv1 state machine (:class:`repro.cca.bbr.BbrCca`) as a fluid law.

    STARTUP's 2.89x gain until the bandwidth estimate plateaus, DRAIN
    to one BDP, then the 8-phase PROBE_BW gain cycle around a
    windowed-max bandwidth estimate, with ``cwnd = 2 x bw x rtprop``
    capping inflight.  The 0.75 phase exits as soon as inflight drains
    to one BDP -- the queue-state coupling through which the probe's
    pulses entrain the cycle (the source of BBR's measured elasticity
    at short RTTs).  Loss is ignored, as in BBRv1.
    """

    STARTUP_GAIN = 2.885

    def __init__(self, flow_id: str, base_rtt: float, start: float = 0.0):
        super().__init__(flow_id, base_rtt, start=start)
        self.mss = float(DEFAULT_MSS)
        self.rate = 10.0 * self.mss / base_rtt
        # (time, delivery rate) with rates strictly decreasing, so the
        # head is the windowed max.
        self._bw_samples: deque[tuple[float, float]] = deque()
        self._bw = self.rate
        self._state = "STARTUP"
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._next_round = start + base_rtt
        self._cycle_index = 0
        self._cycle_stamp = start

    def _update_bw(self, now: float, delivered: float) -> None:
        window = max(10.0 * self.base_rtt, 1.0)
        samples = self._bw_samples
        while samples and samples[-1][1] <= delivered:
            samples.pop()
        samples.append((now, delivered))
        while samples[0][0] < now - window:
            samples.popleft()
        self._bw = samples[0][1]

    def advance(self, now, dt, delivered_rate, queue_delay, loss,
                ecn_mark) -> None:
        self._update_bw(now, delivered_rate)
        rtt = self.base_rtt + queue_delay
        # Quasi-static inflight: bytes in the pipe plus this flow's
        # share of the queue, i.e. sending rate times current RTT.
        inflight = self.rate * rtt
        bdp = self._bw * self.base_rtt

        if self._state == "STARTUP":
            gain = self.STARTUP_GAIN
            if now >= self._next_round:
                self._next_round = now + rtt
                if self._bw > self._full_bw * 1.25:
                    self._full_bw = self._bw
                    self._full_bw_rounds = 0
                else:
                    self._full_bw_rounds += 1
                    if self._full_bw_rounds >= 3:
                        self._state = "DRAIN"
        if self._state == "DRAIN":
            gain = 1.0 / self.STARTUP_GAIN
            if inflight <= bdp:
                self._state = "PROBE_BW"
                self._cycle_index = 1  # the 0.75 phase, as after DRAIN
                self._cycle_stamp = now
        if self._state == "PROBE_BW":
            gain = BBR_GAINS[self._cycle_index]
            advance = now - self._cycle_stamp > self.base_rtt
            if gain == 0.75:
                advance = advance or inflight <= bdp
            if advance:
                self._cycle_index = (self._cycle_index + 1) % len(BBR_GAINS)
                self._cycle_stamp = now
                gain = BBR_GAINS[self._cycle_index]

        pacing = gain * self._bw
        cwnd = max(2.0 * bdp, 4.0 * self.mss)
        # Window cap: with inflight = rate x rtt pinned at cwnd the
        # flow is ACK-clocked, so queue-delay growth directly lowers
        # its sending rate -- the coupling that makes BBR respond to
        # the probe's pulses.
        self.rate = max(min(pacing, cwnd / rtt), 2.0 * self.mss / rtt)


class CbrFlow(FluidFlow):
    """Constant-rate inelastic source."""

    def __init__(self, flow_id: str, base_rtt: float, rate: float,
                 start: float = 0.0):
        super().__init__(flow_id, base_rtt, start=start)
        self.rate = rate


class PoissonFlow(FluidFlow):
    """Aggregate of Poisson short flows as a piecewise-constant rate.

    Each 200 ms window offers ``N x mean_size`` bytes where N is
    Poisson-distributed, reproducing the aggregate's mean load and its
    burstiness scale without per-flow state.  Inelastic by
    construction (the real aggregate's elasticity is bounded by flow
    lifetimes far shorter than a pulse period).
    """

    WINDOW = 0.2

    def __init__(self, flow_id: str, base_rtt: float, seed: int = 0):
        super().__init__(flow_id, base_rtt)
        self._rng = np.random.default_rng(seed)
        self._mean_arrivals = POISSON_OFFERED_RATE * self.WINDOW / 50_000.0
        self._next_draw = 0.0
        self.rate = POISSON_OFFERED_RATE

    def advance(self, now, dt, delivered_rate, queue_delay, loss,
                ecn_mark) -> None:
        if now >= self._next_draw:
            n = self._rng.poisson(self._mean_arrivals)
            self.rate = n * 50_000.0 / self.WINDOW
            self._next_draw = now + self.WINDOW


class VideoFlow(FluidFlow):
    """Duty-cycled ABR video: elastic chunk fetches, idle between.

    While fetching a chunk the flow behaves like a window flow
    (elastic); once the playback buffer is full it goes idle until a
    chunk's worth drains.  The bitrate follows a buffer-level ladder
    as in :class:`repro.traffic.video.VideoStream`.
    """

    LADDER = tuple(mbps(b) for b in (0.6, 1.5, 3.0, 4.5, 8.0, 16.0))
    CHUNK_SECONDS = 2.0
    MAX_BUFFER = 12.0
    LOW_RESERVOIR, HIGH_RESERVOIR = 4.0, 10.0

    def __init__(self, flow_id: str, base_rtt: float):
        super().__init__(flow_id, base_rtt)
        self.mss = float(DEFAULT_MSS)
        self.cwnd = 10.0 * self.mss
        self._last_cut = float("-inf")
        self._buffer = 0.0
        self._chunk_remaining = self._pick_chunk()

    def _pick_chunk(self) -> float:
        if self._buffer < self.LOW_RESERVOIR:
            bitrate = self.LADDER[0]
        elif self._buffer >= self.HIGH_RESERVOIR:
            bitrate = self.LADDER[-1]
        else:
            frac = ((self._buffer - self.LOW_RESERVOIR)
                    / (self.HIGH_RESERVOIR - self.LOW_RESERVOIR))
            bitrate = self.LADDER[
                min(len(self.LADDER) - 1,
                    int(frac * (len(self.LADDER) - 1)) + 1)]
        return bitrate * self.CHUNK_SECONDS

    def advance(self, now, dt, delivered_rate, queue_delay, loss,
                ecn_mark) -> None:
        self._buffer = max(0.0, self._buffer - dt)
        rtt = self.base_rtt + queue_delay
        if self._chunk_remaining > 0.0:
            self._chunk_remaining -= delivered_rate * dt
            if loss and now - self._last_cut >= rtt:
                self._last_cut = now
                self.cwnd = max(2.0 * self.mss, self.cwnd * 0.5)
            else:
                self.cwnd += self.mss * dt / rtt
            if self._chunk_remaining <= 0.0:
                self._buffer = min(self.MAX_BUFFER,
                                   self._buffer + self.CHUNK_SECONDS)
            self.rate = self.cwnd / rtt
        else:
            self.rate = 0.0
            if self._buffer < self.HIGH_RESERVOIR:
                self._chunk_remaining = self._pick_chunk()


def make_flow_cca(kind: str, flow_id: str, base_rtt: float,
                  link_rate: float, rate_frac: float = 0.3,
                  start: float = 0.0) -> FluidFlow:
    """Fluid flow for one :data:`repro.qa.scenario.FLOW_CCAS` entry."""
    if kind == "cbr":
        return CbrFlow(flow_id, base_rtt,
                       rate=max(10_000.0, rate_frac * link_rate),
                       start=start)
    if kind == "bbr":
        return BbrFlow(flow_id, base_rtt, start=start)
    if kind in ("reno", "newreno", "cubic", "vegas", "copa", "dctcp",
                "ledbat"):
        return WindowFlow(flow_id, base_rtt, kind=kind, start=start)
    raise ConfigError(f"no fluid law for CCA {kind!r}")


def make_cross_traffic(kind: str, flow_id: str, base_rtt: float,
                       seed: int = 0) -> FluidFlow | None:
    """Fluid counterpart of :func:`repro.traffic.mix.make_cross_traffic`."""
    if kind == "none":
        return None
    if kind == "reno":
        return WindowFlow(flow_id, base_rtt, kind="reno")
    if kind == "bbr":
        return BbrFlow(flow_id, base_rtt)
    if kind == "cbr":
        return CbrFlow(flow_id, base_rtt, rate=CBR_CROSS_RATE)
    if kind == "poisson":
        return PoissonFlow(flow_id, base_rtt, seed=seed)
    if kind == "video":
        return VideoFlow(flow_id, base_rtt)
    raise ConfigError(f"no fluid law for cross traffic {kind!r}")

"""Builders tests share that the program itself never calls."""

import math

import numpy as np

from repro.cca.nimbus import (GAIN_REFERENCE_DELAY, MIN_RATE_FRAC,
                              QUEUE_GAIN, RATE_SMOOTHING, SAMPLE_INTERVAL)
from repro.core.elasticity import PulseGenerator
from repro.errors import ConfigError
from repro.fluid.model import FluidModel
from repro.fluid.probe import FluidProbe
from repro.fluid.queue import (CodelBottleneck, ContentionBottleneck,
                               FairBottleneck, FifoBottleneck,
                               PolicerBottleneck, RedBottleneck)
from repro.sim import dumbbell
from repro.sim.packet import Packet, PacketKind
from repro.tcp.endpoint import DUPACK_THRESHOLD, TcpSender, _Segment
from repro.units import HEADER_BYTES, ordered_sum


def make_data(flow_id: str, seq: int, payload: int,
              size: int | None = None, user_id: str = "",
              ecn_capable: bool = False) -> Packet:
    """A DATA packet carrying ``payload`` bytes starting at ``seq``."""
    wire = size if size is not None else payload + HEADER_BYTES
    return Packet(flow_id, PacketKind.DATA, wire, seq, seq + payload,
                  0, user_id, ecn_capable)


class LossBox:
    """Independent random loss (Mahimahi ``mm-loss``): a sink that drops
    each packet with probability ``loss_rate``, drawing in packet
    order."""

    name = "loss"

    def __init__(self, sim, loss_rate: float, sink=None, seed: int = 0):
        if not 0 <= loss_rate < 1:
            raise ConfigError(f"loss_rate must be in [0, 1): {loss_rate}")
        self.sim = sim
        self.loss_rate = loss_rate
        self.sink = sink
        self.dropped = 0
        self._rng = np.random.default_rng(seed)

    def send(self, packet: Packet) -> None:
        if self._rng.random() < self.loss_rate:
            self.dropped += 1
            return
        if self.sink is not None:
            self.sink.send(packet)


def lossy_dumbbell(sim, rate_bps: float, rtt: float, loss_rate: float,
                   seed: int = 0, **kwargs):
    """:func:`~repro.sim.network.dumbbell` with seeded random loss on
    the forward path, between the bottleneck's propagation and the
    receiver (``path.extras["loss"]``)."""
    path = dumbbell(sim, rate_bps, rtt, **kwargs)
    box = LossBox(sim, loss_rate, sink=path.dst_host, seed=seed)
    path.bottleneck.sink = box
    path.extras["loss"] = box
    return path


def advertise_window(connection, rwnd_bytes: int) -> None:
    """Make ``connection``'s receiver a receiver-limited peer: every ACK
    it sends advertises ``rwnd_bytes`` beyond what it has received."""
    receiver = connection.receiver
    send = receiver.transmit

    def transmit(ack):
        ack.rwnd = receiver.rcv_nxt + rwnd_bytes
        send(ack)

    receiver.transmit = transmit


def submit_and_wait(client, kind: str, params, timeout: float) -> dict:
    """Submit one job through a :class:`~repro.serve.ServeClient` and
    wait for it; a cached submission returns at once."""
    job = client.submit(kind, params)
    if job.get("disposition") == "cached":
        return job
    return client.wait(job["id"], timeout=timeout)


class ReferenceScoreboard(TcpSender):
    """:class:`~repro.tcp.endpoint.TcpSender` with its SACK scoreboard
    written the slow way: a seq -> segment dict and an end -> seq dict,
    every SACK block and every loss check walked from the lowest
    outstanding seq, a lost queue of seqs.  No resume index, scan
    pointer or compaction; what reads the scoreboard (the pump, the
    ACK clock, the CCA) is the sender's own."""

    def __init__(self, *args, **kwargs):
        self._segments: dict[int, _Segment] = {}
        self._by_end: dict[int, int] = {}
        super().__init__(*args, **kwargs)

    def flags(self) -> dict:
        """``{seq: (sacked, lost)}`` of every outstanding segment."""
        return {seq: (seg.sacked, seg.lost)
                for seq, seg in self._segments.items()}

    def _send_new_segment(self, now):
        before = self.snd_nxt
        super()._send_new_segment(now)
        segment = self._order.pop()
        self._segments[before] = segment
        self._by_end[segment.end] = before

    def _send_retransmission(self):
        seq = self._lost_queue.popleft()
        segment = self._segments.get(seq)
        if segment is None or segment.sacked or segment.retx_inflight:
            return
        self._lost_queue.appendleft(segment)
        super()._send_retransmission()

    def _apply_sack_blocks(self, blocks):
        for lo, hi in blocks:
            self._highest_sacked = max(self._highest_sacked, hi)
            for seq, seg in self._segments.items():
                if seq >= hi:
                    break
                if seg.sacked or seq < lo:
                    continue
                if seg.end > hi:
                    break
                seg.sacked = True
                self.delivered += seg.payload
                if not seg.lost:
                    self._pipe_bytes -= seg.payload
                elif seg.retx_inflight:
                    self._pipe_bytes -= seg.payload
                    seg.retx_inflight = False

    def _detect_losses(self, now):
        threshold = self._highest_sacked - DUPACK_THRESHOLD * self.mss
        newly_lost_max = None
        for seq, seg in self._segments.items():
            if seg.sacked or seg.lost:
                continue
            if seg.end > threshold:
                break
            seg.lost = True
            self._pipe_bytes -= seg.payload
            self._lost_queue.append(seq)
            newly_lost_max = seq
        if (newly_lost_max is None or self._in_recovery
                or newly_lost_max < self._recover_point):
            return
        self._in_recovery = True
        self._recover_point = self.snd_nxt
        self.fast_retransmits += 1
        self.cca.on_loss(now, self.mss)

    def _drop_acked_segments(self, ack):
        candidate = self._segments.get(self._by_end.get(ack))
        newly_delivered = covered = 0
        for seq in list(self._segments):
            seg = self._segments[seq]
            if seg.end > ack:
                break
            del self._segments[seq]
            del self._by_end[seg.end]
            covered += seg.payload
            if not seg.sacked:
                newly_delivered += seg.payload
                if not seg.lost or seg.retx_inflight:
                    self._pipe_bytes -= seg.payload
        while self._lost_queue and self._lost_queue[0] not in self._segments:
            self._lost_queue.popleft()
        return newly_delivered, covered, candidate

    def _on_rto(self):
        if self.snd_nxt > self.snd_una:
            self._segments.clear()
            self._by_end.clear()
        super()._on_rto()


# ---------------------------------------------------------------------------
# The fluid tick written the plain way: every comprehension, every
# ordered_sum and every max/min call, the hook asked on every tick, a
# cohort's rest rewritten at each partial service.  The methods below
# are the fluid backend's before its hot loop was tightened, kept
# verbatim; ``tests/test_fluid_reference.py`` steps them beside the
# program's and holds every float equal.  Swap an object's class to
# its twin with ``as_reference``.
# ---------------------------------------------------------------------------


def cross_traffic_estimate(mu: float, send_rate: float,
                           recv_rate: float) -> float:
    if recv_rate <= 0 or send_rate <= 0:
        return 0.0
    return max(0.0, mu * send_rate / recv_rate - send_rate)


def clipped_cross_estimate(mu: float, send_rate: float,
                           recv_rate: float) -> float:
    return min(cross_traffic_estimate(mu, send_rate, recv_rate), 1.5 * mu)


def delay_mode_rate(mu: float, z_smoothed: float, delay_target: float,
                    queue_delay: float, min_rate_frac: float) -> float:
    fair_share = max(0.0, mu - z_smoothed)
    queue_term = (QUEUE_GAIN * mu * (delay_target - queue_delay)
                  / GAIN_REFERENCE_DELAY)
    return min(max(fair_share + queue_term, min_rate_frac * mu), 1.2 * mu)


class ReferencePulseGenerator(PulseGenerator):
    def offset(self, t: float, mu: float) -> float:
        return (self.amplitude_frac * mu
                * math.sin(2.0 * math.pi * self.frequency * t))


class ReferenceFifoBottleneck(FifoBottleneck):
    """Cohorts are ``(size, bytes per flow)``, rewritten in place."""

    def tick(self, arrivals: list[float], dt: float):
        dropped = marked = self._zeros
        total_in = ordered_sum(arrivals)
        if total_in > 0.0:
            accepted = arrivals
            drop_frac, mark_frac = self._early_action(total_in, dt)
            if mark_frac > 0.0:
                marked = [a * mark_frac for a in arrivals]
                self.marked_bytes += total_in * mark_frac
            if drop_frac > 0.0:
                dropped = [a * drop_frac for a in arrivals]
                accepted = [a * (1.0 - drop_frac) for a in arrivals]
                total_in = ordered_sum(accepted)
            # Tail drop: whatever exceeds the buffer comes out of the
            # arriving cohort, proportionally across its flows.
            space = self.buffer_bytes - self.backlog
            if total_in > space:
                keep = max(0.0, space) / total_in
                dropped = [d + a * (1.0 - keep)
                           for d, a in zip(dropped, accepted)]
                accepted = [a * keep for a in accepted]
                total_in = ordered_sum(accepted)
            if total_in > 0.0:
                self._cohorts.append((total_in, accepted))
                self.backlog += total_in
                self.accepted_bytes += total_in
            if dropped is not self._zeros:
                self.dropped_bytes += ordered_sum(dropped)

        served = [0.0] * self.n
        budget = self.rate * dt
        cohorts = self._cohorts
        while budget > 1e-9 and cohorts:
            size, cohort = cohorts[0]
            if size <= budget:
                served = [s + c for s, c in zip(served, cohort)]
                budget -= size
                self.backlog -= size
                cohorts.popleft()
            else:
                frac = budget / size
                served = [s + c * frac for s, c in zip(served, cohort)]
                rest = 1.0 - frac
                cohorts[0] = (size - budget, [c * rest for c in cohort])
                self.backlog -= budget
                budget = 0.0
        self.backlog = max(0.0, self.backlog)
        self.served_bytes += ordered_sum(served)
        return served, dropped, marked, [self.backlog / self.rate] * self.n


class ReferenceRedBottleneck(RedBottleneck):
    tick = ReferenceFifoBottleneck.tick


class ReferenceCodelBottleneck(CodelBottleneck):
    tick = ReferenceFifoBottleneck.tick


class ReferenceFairBottleneck(FairBottleneck):
    def tick(self, arrivals: list[float], dt: float):
        queues = self.queues
        dropped = self._zeros
        for i, arrived in enumerate(arrivals):
            queues[i] += arrived
        self.accepted_bytes += ordered_sum(arrivals)
        # Overflow drops from the longest queue (DRR semantics).
        overflow = ordered_sum(queues) - self.buffer_bytes
        if overflow > 1e-9:
            dropped = [0.0] * self.n
            while overflow > 1e-9:
                i = queues.index(max(queues))
                cut = min(overflow, queues[i])
                queues[i] -= cut
                dropped[i] += cut
                overflow -= cut
            drop_total = ordered_sum(dropped)
            self.dropped_bytes += drop_total
            self.accepted_bytes -= drop_total

        served = [0.0] * self.n
        budget = self.rate * dt
        while budget > 1e-9:
            active = [i for i, q in enumerate(queues) if q > 1e-9]
            if not active:
                break
            share = budget / len(active)
            spent = 0.0
            for i in active:
                take = min(queues[i], share)
                queues[i] -= take
                served[i] += take
                spent += take
            if spent <= 1e-12:
                break
            budget -= spent
        self.served_bytes += ordered_sum(served)
        recent = self._svc_smoothed
        for i, got in enumerate(served):
            recent[i] += 0.2 * (got / dt - recent[i])
        delays = [q / r if r > 0.0 else 0.0 for q, r in zip(queues, recent)]
        return served, dropped, self._zeros, delays


class ReferencePolicerBottleneck(PolicerBottleneck):
    def tick(self, arrivals: list[float], dt: float):
        total = ordered_sum(arrivals)
        budget = self.rate * dt
        served, dropped = arrivals, self._zeros
        if total > budget:
            keep = budget / total
            served = [a * keep for a in arrivals]
            dropped = [a * (1.0 - keep) for a in arrivals]
            self.dropped_bytes += ordered_sum(dropped)
        got = ordered_sum(served)
        self.accepted_bytes += got
        self.served_bytes += got
        return served, dropped, self._zeros, self._zeros


class ReferenceContentionBottleneck(ContentionBottleneck):
    def tick(self, arrivals: list[float], dt: float):
        queues, members, limit = self.queues, self._members, self.buffer_bytes
        for i, arrived in enumerate(arrivals):
            queues[i] += arrived
        self.accepted_bytes += ordered_sum(arrivals)
        backlogs = [ordered_sum([queues[i] for i in flows])
                    for flows in members]
        # Per-station tail drop, proportional across the station's flows.
        dropped = self._zeros
        for s, backlog in enumerate(backlogs):
            if backlog > limit:
                if dropped is self._zeros:
                    dropped = [0.0] * self.n
                keep = limit / backlog
                for i in members[s]:
                    dropped[i] += queues[i] * (1.0 - keep)
                    queues[i] *= keep
                backlogs[s] = backlog - (backlog - limit)
        if dropped is not self._zeros:
            drop_total = ordered_sum(dropped)
            self.dropped_bytes += drop_total
            self.accepted_bytes -= drop_total

        served = [0.0] * self.n
        delays = [0.0] * self.n
        active = tuple(s for s, b in enumerate(backlogs) if b > 1e-9)
        if active:
            caps, access = self._solve(active)
            waiting = [backlogs[s] for s in active]
            budgets = [cap * dt for cap in caps]
            # Water-fill: capacity a station cannot use goes back to
            # the still-backlogged ones in proportion to their shares.
            for _ in active:
                spare = 0.0
                busy = []
                for k, budget in enumerate(budgets):
                    if waiting[k] > budget + 1e-9:
                        busy.append(k)
                    spare += budget - min(waiting[k], budget)
                if spare <= 1e-9 or not busy:
                    break
                weight_sum = ordered_sum([caps[k] for k in busy])
                for k, budget in enumerate(budgets):
                    if k in busy:
                        budgets[k] = budget + spare * caps[k] / weight_sum
                    else:
                        budgets[k] = min(budget, waiting[k])
            for k, s in enumerate(active):
                station_q = ordered_sum([queues[i] for i in members[s]])
                take = min(station_q, budgets[k])
                frac = take / station_q
                # Sojourn at the station's cap plus MAC access delay.
                delay = (station_q - take) / max(caps[k], 1e-9) + access[k]
                for i in members[s]:
                    served[i] = queues[i] * frac
                    queues[i] *= 1.0 - frac
                    delays[i] = delay
        self.served_bytes += ordered_sum(served)
        return served, dropped, self._zeros, delays


class ReferenceFluidProbe(FluidProbe):
    def _window_mean(self, hist: list[float], end: int, k: int) -> float:
        lo = max(0, end - k)
        if end <= lo:
            return 0.0
        return ordered_sum(hist[lo:end]) / (end - lo)

    def advance(self, now, dt, delivered_rate, queue_delay, loss,
                ecn_mark) -> None:
        self._send_hist.append(self.rate)
        self._recv_hist.append(delivered_rate)
        self._q_smoothed += 0.1 * (queue_delay - self._q_smoothed)

        if now + dt >= self._next_sample:
            self._next_sample += SAMPLE_INTERVAL
            n = len(self._send_hist)
            k = max(1, int(round(RATE_SMOOTHING / dt)))
            lag = int(round(self._q_smoothed / dt))
            send = self._window_mean(self._send_hist, n - lag, k)
            recv = self._window_mean(self._recv_hist, n, k)
            z = clipped_cross_estimate(self.mu, send, recv)
            self._z_smoothed += 0.1 * (z - self._z_smoothed)
            self.estimator.add_sample(now + dt, z)

        self._base_rate = delay_mode_rate(
            self.mu, self._z_smoothed, self.delay_target, queue_delay,
            MIN_RATE_FRAC)
        self.rate = max(self._base_rate + self.pulses.offset(now + dt,
                                                             self.mu),
                        MIN_RATE_FRAC * self.mu)


class ReferenceFluidModel(FluidModel):
    def run(self, duration: float) -> None:
        """Advance the model to ``duration`` seconds."""
        dt = self.dt
        flows = self.flows
        tick = self.bottleneck.tick
        rng, scale = self._jitter_rng, self._jitter_scale
        steps = int(round((duration - self.now) / dt))
        for _ in range(steps):
            now = self.now
            rates = [f.rate if now >= f.start else 0.0 for f in flows]
            if rng is not None:
                # One vector draw per tick keeps the seeded stream.
                rates = [r * (1.0 + a * (2.0 * u - 1.0)) for r, a, u
                         in zip(rates, scale, rng.random(len(flows)).tolist())]
            served, dropped, marked, delays = tick(
                [r * dt for r in rates], dt)
            for i, flow in enumerate(flows):
                if now >= flow.start:
                    delivered_rate = served[i] / dt
                    flow.delivered_bytes += delivered_rate * dt
                    flow.advance(now, dt, delivered_rate, delays[i],
                                 dropped[i] > 0.0, marked[i] > 0.0)
            self.now = now + dt
            self.ticks += 1


_REFERENCE = {cls.__mro__[1]: cls for cls in (
    ReferencePulseGenerator, ReferenceFifoBottleneck, ReferenceRedBottleneck,
    ReferenceCodelBottleneck, ReferenceFairBottleneck,
    ReferencePolicerBottleneck, ReferenceContentionBottleneck,
    ReferenceFluidProbe, ReferenceFluidModel)}


def as_reference(obj):
    """Give ``obj`` its reference twin's methods (same state, same
    constructor); a model's bottleneck and probe, and a probe's pulse
    generator, go with it.  Returns ``obj``."""
    obj.__class__ = _REFERENCE[type(obj)]
    if isinstance(obj, FluidModel):
        as_reference(obj.bottleneck)
        for flow in obj.flows:
            if isinstance(flow, FluidProbe):
                as_reference(flow)
    if isinstance(obj, FluidProbe):
        as_reference(obj.pulses)
    return obj

"""Builders tests share that the program itself never calls."""

import numpy as np

from repro.errors import ConfigError
from repro.sim import dumbbell
from repro.sim.packet import Packet, PacketKind
from repro.tcp.endpoint import DUPACK_THRESHOLD, TcpSender, _Segment
from repro.units import HEADER_BYTES


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

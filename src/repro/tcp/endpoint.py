"""TCP-like transport endpoints.

:class:`TcpSender` provides a reliable byte stream with pluggable
congestion control: cumulative + selective ACKs, RFC 6675-style SACK
loss recovery with FACK loss marking and pipe accounting, an RFC 6298
retransmission timer with go-back-N on expiry, optional pacing,
BBR-style delivery-rate sampling, and Linux-``tcp_info``-style
limit-state accounting.

:class:`TcpReceiver` reassembles the stream, advertises a receive
window, and generates immediate ACKs carrying SACK blocks and exact
RTT-timestamp echoes (suppressed for retransmitted segments, per Karn's
algorithm).

:class:`Connection` wires a sender/receiver pair onto a
:class:`~repro.sim.network.PathHandles` topology.
"""

from __future__ import annotations

import bisect
import functools
from collections import deque
from operator import attrgetter
from typing import Callable, Optional

from ..cca.base import AckSample, CongestionControl
from ..errors import TransportError
from ..obs.bus import BUS as _OBS, EventKind
from ..sim.engine import Simulator
from ..sim.network import PathHandles
from ..sim.packet import Packet, PacketKind
from ..units import ACK_SIZE, DEFAULT_MSS, HEADER_BYTES
from .rtt import RttEstimator
from .tcp_info import LimitState, TcpInfoTracker

#: Loss is declared when this many segment-sizes of data above a
#: segment have been selectively acknowledged (FACK-style IsLost).
DUPACK_THRESHOLD = 3

#: Effectively-unlimited receive window.
UNLIMITED_RWND = 1 << 48

#: Maximum SACK blocks carried per ACK (as in real TCP options).
MAX_SACK_BLOCKS = 3

#: Cumulatively-acked segments the scoreboard keeps before it compacts.
COMPACT_AFTER = 256

_DATA = PacketKind.DATA
_ACK = PacketKind.ACK


class _Segment:
    """Scoreboard entry for one in-flight data segment."""

    __slots__ = ("seq", "end", "wire_size", "sent_time", "retransmitted",
                 "retx_inflight", "sacked", "lost", "delivered_at_send",
                 "app_limited", "payload")

    def __init__(self, seq: int, end: int, wire_size: int, sent_time: float,
                 delivered_at_send: int, app_limited: bool):
        self.seq = seq
        self.end = end
        self.wire_size = wire_size
        self.sent_time = sent_time
        self.retransmitted = False
        self.retx_inflight = False
        self.sacked = False
        self.lost = False
        self.delivered_at_send = delivered_at_send
        self.app_limited = app_limited
        self.payload = end - seq


_seq_of = attrgetter("seq")


class TcpSender:
    """Reliable stream sender with pluggable congestion control.

    Args:
        sim: the simulator.
        flow_id: flow identifier carried on every packet.
        cca: the congestion control algorithm instance (owned).
        transmit: callable injecting packets into the network.
        mss: payload bytes per segment, which the CCA counts in too.
        user_id: subscriber identifier (for per-user qdiscs).
        ecn: negotiate ECN (packets marked capable; reacts to echoes).
        jitter: optional :class:`~repro.sim.jitter.TimingJitter`
            perturbing the pacing clock (endpoint CPU contention).
    """

    def __init__(self, sim: Simulator, flow_id: str, cca: CongestionControl,
                 transmit: Callable[[Packet], None], mss: int = DEFAULT_MSS,
                 user_id: str = "", ecn: bool = False, jitter=None):
        self.sim = sim
        self.flow_id = flow_id
        self.cca = cca
        self.transmit = transmit
        self.mss = mss
        self.user_id = user_id or flow_id
        self.ecn = ecn
        self.jitter = jitter

        self.snd_una = 0
        self.snd_nxt = 0
        self._total_written = 0
        self._infinite_backlog = False
        self._closed = False
        self._completed = False
        #: invoked once, as ``fn(now)``, when a closed stream is fully acked
        self.on_complete: Optional[Callable[[float], None]] = None

        # Scoreboard: the segments in send order (seq order until
        # go-back-N empties it), outstanding from `_head` on; `_scan` is
        # the loss-marking pointer and `_sack_resume`, per block start
        # of the last SACK-bearing ACK, the index where marking that
        # block stopped, so SACK processing is amortized O(1) per ACK
        # with a BBR-sized window in flight.  Lost segments await
        # retransmission in `_lost_queue`, in seq order.
        self._order: list[_Segment] = []
        self._head = 0
        self._scan = 0
        self._sack_resume: dict[int, int] = {}
        self._lost_queue: deque[_Segment] = deque()
        self._pipe_bytes = 0
        self._highest_sacked = 0

        self._in_recovery = False
        self._recover_point = 0
        self._peer_rwnd = UNLIMITED_RWND
        self.dupacks_total = 0

        self.rtt = RttEstimator()
        self.tracker = TcpInfoTracker(start_time=sim.now)
        self._rto_event = None
        # The pacing pump is never cancelled, only guarded against
        # double-scheduling, so a boolean flag plus the handle-free
        # call_at path replaces an Event allocation per pacing tick.
        self._pump_scheduled = False
        self._next_tx_time = 0.0

        # BBR-style delivery accounting.
        self.delivered = 0

        self.fast_retransmits = 0
        self.timeouts = 0

        cca.bind_flow(flow_id, mss)
        cca.on_connection_start(sim.now)

    # -- application interface -------------------------------------------

    def write(self, nbytes: int) -> None:
        """Append ``nbytes`` to the stream."""
        if nbytes < 0:
            raise TransportError(f"cannot write negative bytes: {nbytes}")
        if self._closed:
            raise TransportError("write after close")
        self._total_written += nbytes
        self._pump()

    def set_infinite_backlog(self) -> None:
        """Model a persistently backlogged application."""
        self._infinite_backlog = True
        self._pump()

    def close(self) -> None:
        """No more writes; ``on_complete`` fires when all data is acked."""
        self._closed = True
        self._maybe_complete()

    @property
    def inflight_bytes(self) -> int:
        """Payload bytes sent and not yet cumulatively acked."""
        return self.snd_nxt - self.snd_una

    @property
    def in_recovery(self) -> bool:
        return self._in_recovery

    @property
    def completed(self) -> bool:
        return self._completed

    # -- transmission -------------------------------------------------------
    #
    # Everything from here to the receiver runs once per segment or per
    # ACK.  Window, backlog and timer arithmetic is written where it is
    # used rather than behind helpers: a Python frame per helper, a
    # dozen helpers per packet, is a third of the packet backend's time.

    def _pump(self) -> None:
        if self._pump_scheduled:
            return
        sim = self.sim
        now = sim.now
        cca = self.cca
        mss = self.mss
        lost_queue = self._lost_queue
        while True:
            window = cca.cwnd * mss
            if self._peer_rwnd < window:
                window = float(self._peer_rwnd)
            if self._pipe_bytes + mss > window + 1e-9:
                break
            if not (lost_queue or self._infinite_backlog
                    or self._total_written > self.snd_nxt):
                break
            if self._next_tx_time > now + 1e-12:
                self._pump_scheduled = True
                sim.call_at(self._next_tx_time, self._pump_fire)
                break
            if lost_queue:
                self._send_retransmission()
            else:
                self._send_new_segment(now)
        self._update_limit_state()

    def _pump_fire(self) -> None:
        self._pump_scheduled = False
        self._pump()

    def _send_new_segment(self, now: float) -> None:
        seq = self.snd_nxt
        if self._infinite_backlog:
            payload = self.mss
            app_limited = False
        else:
            payload = min(self.mss, self._total_written - seq)
            app_limited = seq + payload == self._total_written
        end = seq + payload
        size = payload + HEADER_BYTES
        packet = Packet(self.flow_id, _DATA, size, seq, end, 0,
                        self.user_id, self.ecn)
        packet.sent_time = now
        self.snd_nxt = end
        self._order.append(_Segment(
            seq, end, size, now, self.delivered, app_limited))
        self._pipe_bytes += payload
        self.tracker.bytes_sent += payload
        self._advance_pacing_clock(now, size)
        self.cca.on_packet_sent(now, payload, app_limited)
        if self._rto_event is None:
            self._rto_event = self.sim.schedule(self.rtt.rto, self._on_rto)
        self.transmit(packet)

    def _send_retransmission(self) -> None:
        # Acked segments leave the queue's front as they are dropped.
        segment = self._lost_queue.popleft()
        if segment.sacked or segment.retx_inflight:
            return
        now = self.sim.now
        payload = segment.payload
        packet = Packet(self.flow_id, _DATA, segment.wire_size, segment.seq,
                        segment.end, 0, self.user_id, self.ecn)
        packet.sent_time = now
        packet.retransmit = True
        segment.retransmitted = True
        segment.retx_inflight = True
        segment.sent_time = now
        self._pipe_bytes += payload
        self.tracker.bytes_retrans += payload
        self.tracker.retransmits += 1
        self._advance_pacing_clock(now, packet.size)
        if self._rto_event is None:
            self._rto_event = self.sim.schedule(self.rtt.rto, self._on_rto)
        self.transmit(packet)

    def _advance_pacing_clock(self, now: float, wire_size: int) -> None:
        rate = self.cca.pacing_rate
        if rate is None or rate <= 0:
            self._next_tx_time = now
            return
        base = max(now, self._next_tx_time)
        gap = wire_size / rate
        if self.jitter is not None:
            # A contended sender CPU stretches or squeezes each pacing
            # gap; the mean stays ~1 so the configured rate holds.
            gap *= self.jitter.pacing_factor()
        self._next_tx_time = base + gap

    # -- ACK processing ------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        """Entry point for packets arriving from the network (ACKs)."""
        if packet.kind is not _ACK:
            return
        now = self.sim.now
        if packet.rwnd is not None:
            self._peer_rwnd = max(0, packet.rwnd - self.snd_una)

        blocks = packet.sack_blocks
        if blocks:
            self._apply_sack_blocks(blocks)
        if packet.ack > self.snd_una:
            self._on_new_ack(packet, now)
        elif packet.ack == self.snd_una and self.snd_nxt > self.snd_una:
            self.dupacks_total += 1
            self.cca.on_dup_ack(now)
        if blocks:
            # The FACK threshold moves only with `_highest_sacked`, so
            # an ACK without SACK blocks cannot mark anything lost.
            self._detect_losses(now)
        if self._in_recovery and self.snd_una >= self._recover_point:
            self._in_recovery = False
            self.cca.on_recovery_exit(now)
        self._pump()

    def _apply_sack_blocks(self,
                           blocks: tuple[tuple[int, int], ...]) -> None:
        order = self._order
        head = self._head
        resume = self._sack_resume
        self._sack_resume = stops = {}
        for lo, hi in blocks:
            if hi > self._highest_sacked:
                self._highest_sacked = hi
            # A block keeps its start while it grows, and everything
            # marked under that start stays marked: carry on from where
            # the previous ACK's walk of it stopped (or from `_head`).
            # (A walk that stopped at the end of `_order` resumes at
            # whatever was sent next, which after go-back-N can still be
            # below the block: hence `seq >= lo`.)
            idx = resume.get(lo)
            if idx is None:
                idx = bisect.bisect_left(order, lo, head, key=_seq_of)
            elif idx < head:
                idx = head
            while idx < len(order):
                seg = order[idx]
                seq = seg.seq
                if seq >= hi:
                    break
                if not seg.sacked and seq >= lo:
                    if seg.end > hi:
                        break  # straddles the edge: look again next ACK
                    seg.sacked = True
                    # Count delivery at SACK time (as Linux tcp_rate
                    # does): otherwise the cumulative ACK that later
                    # repairs the hole below looks like a multi-MB
                    # instantaneous delivery and poisons rate samples.
                    self.delivered += seg.payload
                    # If the original was marked lost, only an in-flight
                    # retransmission still counts toward pipe.
                    if not seg.lost:
                        self._pipe_bytes -= seg.payload
                    elif seg.retx_inflight:
                        self._pipe_bytes -= seg.payload
                        seg.retx_inflight = False
                idx += 1
            stops[lo] = idx

    def _detect_losses(self, now: float) -> None:
        threshold = self._highest_sacked - DUPACK_THRESHOLD * self.mss
        newly_lost_max: int | None = None
        order = self._order
        scan = max(self._scan, self._head)
        while scan < len(order):
            seg = order[scan]
            if seg.sacked or seg.lost:
                scan += 1
                continue
            if seg.end > threshold:
                break
            seg.lost = True
            self._pipe_bytes -= seg.payload
            self._lost_queue.append(seg)  # scan order is seq order
            newly_lost_max = seg.seq
            scan += 1
        self._scan = scan
        if newly_lost_max is None or self._in_recovery:
            return
        # One congestion response per window of data (RFC 6582/6675):
        # a late-detected loss from before the previous recovery point
        # still gets retransmitted, but must not trigger another
        # multiplicative decrease.
        if newly_lost_max >= self._recover_point:
            self._in_recovery = True
            self._recover_point = self.snd_nxt
            self.fast_retransmits += 1
            if _OBS.enabled:
                _OBS.emit(now, EventKind.LOSS, f"tcp:{self.flow_id}",
                          self.flow_id, float(self.mss))
            self.cca.on_loss(now, self.mss)

    def _on_new_ack(self, packet: Packet, now: float) -> None:
        ack = packet.ack
        acked = ack - self.snd_una
        self.snd_una = ack
        if self.snd_nxt < ack:
            # A late cumulative ACK can outrun snd_nxt after a go-back-N
            # reset (the receiver already held the data out of order).
            self.snd_nxt = ack
        self.tracker.bytes_acked += acked

        rtt = self.rtt
        rtt_sample: float | None = None
        if packet.ack_of_sent_time is not None:
            elapsed = now - packet.ack_of_sent_time
            if elapsed > 0:
                rtt.update(elapsed)
                rtt_sample = elapsed

        # Delivery accounting: bytes already counted when SACKed are
        # not re-counted; bytes with no scoreboard entry (post-RTO
        # go-back-N races) are credited from the ACK itself.  The
        # rate-sample candidate is the dropped segment ending exactly
        # at the new ack.
        newly_delivered, covered, candidate = self._drop_acked_segments(ack)
        self.delivered += newly_delivered + max(0, acked - covered)

        delivery_rate = None
        rate_app_limited = False
        if candidate is not None and not candidate.retransmitted:
            elapsed = now - candidate.sent_time
            # A segment cannot be acknowledged in less than the path's
            # min RTT.  If this "ack" arrived faster, the cumulative ack
            # was really triggered by older data (e.g. a post-RTO
            # duplicate resend the receiver already held) and the sample
            # would divide a large delivered delta by a near-zero
            # interval.
            min_rtt = rtt.min_rtt
            if elapsed > 0 and (min_rtt is None or elapsed >= min_rtt):
                delivery_rate = (self.delivered
                                 - candidate.delivered_at_send) / elapsed
                rate_app_limited = candidate.app_limited

        cca = self.cca
        cca.on_ack(AckSample(
            now, acked, rtt_sample, rtt.min_rtt, rtt.srtt,
            self.snd_nxt - ack, delivery_rate, rate_app_limited,
            self.delivered,
            self._in_recovery and ack < self._recover_point,
            packet.ecn_echo))
        if _OBS.enabled:
            pacing = cca.pacing_rate
            _OBS.emit(now, EventKind.CWND, f"tcp:{self.flow_id}",
                      self.flow_id, cca.cwnd,
                      {"pacing_rate": pacing} if pacing is not None else None)

        # Restart the retransmission timer while data is outstanding.
        if self.snd_nxt <= ack:
            self._disarm_rto()
        elif self._rto_event is None:
            self._rto_event = self.sim.schedule(rtt.rto, self._on_rto)
        else:
            self.sim.reschedule(self._rto_event, rtt.rto)
        if self._closed:
            self._maybe_complete()

    def _drop_acked_segments(self, ack: int
                             ) -> tuple[int, int, Optional[_Segment]]:
        """Move ``_head`` past the segments below ``ack``.

        Returns:
            (newly_delivered, covered, candidate): payload bytes not
            counted as delivered via SACK, payload bytes dropped, and
            the dropped segment ending exactly at ``ack``, if any.
        """
        newly_delivered = 0
        covered = 0
        order = self._order
        head = start = self._head
        while head < len(order):
            seg = order[head]
            if seg.end > ack:
                break
            covered += seg.payload
            if not seg.sacked:
                newly_delivered += seg.payload
                if not seg.lost or seg.retx_inflight:
                    self._pipe_bytes -= seg.payload
            head += 1
        candidate = (order[head - 1] if head > start
                     and order[head - 1].end == ack else None)
        if head > COMPACT_AFTER:
            del order[:head]  # in place: a test may hold the list
            self._scan = max(0, self._scan - head)
            resume = self._sack_resume
            for lo in resume:
                resume[lo] = max(0, resume[lo] - head)
            head = 0
        self._head = head
        lost_queue = self._lost_queue
        while lost_queue and lost_queue[0].end <= ack:
            # Cumulatively-acked entries sit at the front (lowest seqs).
            lost_queue.popleft()
        return newly_delivered, covered, candidate

    # -- RTO -------------------------------------------------------------------

    def _disarm_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancelled = True
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.snd_nxt <= self.snd_una:
            return
        now = self.sim.now
        self.timeouts += 1
        if _OBS.enabled:
            _OBS.emit(now, EventKind.RTO, f"tcp:{self.flow_id}",
                      self.flow_id, float(self.snd_nxt - self.snd_una))
        self.rtt.backoff()
        # Go-back-N: everything outstanding is presumed lost.
        self._order.clear()
        self._head = 0
        self._scan = 0
        self._sack_resume = {}
        self._lost_queue.clear()
        self._pipe_bytes = 0
        self._highest_sacked = 0
        self.snd_nxt = self.snd_una
        self._in_recovery = False
        self._next_tx_time = now
        self.cca.on_rto(now)
        self._pump()
        if (self.snd_nxt > self.snd_una or self._infinite_backlog
                or self._total_written > self.snd_nxt):
            # Restarted even if the pump just armed it: the timer runs
            # from the end of the go-back-N burst.
            if self._rto_event is None:
                self._rto_event = self.sim.schedule(self.rtt.rto,
                                                    self._on_rto)
            else:
                self.sim.reschedule(self._rto_event, self.rtt.rto)

    # -- accounting ---------------------------------------------------------

    def _update_limit_state(self) -> None:
        backlogged = (self._infinite_backlog
                      or self._total_written > self.snd_nxt)
        if not backlogged and self.snd_nxt == self.snd_una:
            state = LimitState.IDLE if self._closed else LimitState.APP_LIMITED
        elif not backlogged and not self._lost_queue:
            state = LimitState.APP_LIMITED
        elif self._pump_scheduled:
            state = LimitState.BUSY
        else:
            # Something is waiting to go out (new data or a lost
            # segment): which window, if any, is holding it back?
            cwnd_bytes = self.cca.cwnd * self.mss
            window = min(cwnd_bytes, float(self._peer_rwnd))
            if self._pipe_bytes + self.mss <= window + 1e-9:
                state = LimitState.BUSY
            elif self._peer_rwnd < cwnd_bytes:
                state = LimitState.RWND_LIMITED
            else:
                state = LimitState.CWND_LIMITED
        tracker = self.tracker
        if state is not tracker.state:
            tracker.set_state(state, self.sim.now)

    def _maybe_complete(self) -> None:
        if (self._closed and not self._completed
                and not self._infinite_backlog
                and self.snd_una >= self._total_written):
            self._completed = True
            if self.on_complete is not None:
                self.on_complete(self.sim.now)

    def snapshot(self):
        """Current :class:`~repro.tcp.tcp_info.TcpInfoSnapshot`."""
        self._update_limit_state()
        return self.tracker.snapshot(self.sim.now, min_rtt_s=self.rtt.min_rtt,
                                     smoothed_rtt_s=self.rtt.srtt)


class TcpReceiver:
    """Stream reassembly and ACK generation.  The receive window is
    unlimited: no ACK advertises one.

    Args:
        sim: the simulator.
        flow_id: flow identifier.
        transmit: callable injecting ACKs into the reverse path.
        on_data: optional ``fn(new_bytes, now)`` delivery callback fired
            as in-order data arrives.
        jitter: optional :class:`~repro.sim.jitter.TimingJitter`
            delaying ACK dispatch (contended receiver CPU); delayed
            ACKs stay in order via a monotone dispatch clock.
    """

    def __init__(self, sim: Simulator, flow_id: str,
                 transmit: Callable[[Packet], None],
                 on_data: Optional[Callable[[int, float], None]] = None,
                 user_id: str = "", jitter=None):
        self.sim = sim
        self.flow_id = flow_id
        self.transmit = transmit
        self.on_data = on_data
        self.user_id = user_id or flow_id
        self.jitter = jitter
        self._next_ack_time = 0.0
        self.rcv_nxt = 0
        self._ooo: list[tuple[int, int]] = []
        self.received_bytes = 0
        self.duplicate_packets = 0

    def on_packet(self, packet: Packet) -> None:
        """Entry point for packets arriving from the network (DATA):
        reassemble, then acknowledge at once."""
        if packet.kind is not _DATA:
            return
        now = self.sim.now
        before = self.rcv_nxt
        end = packet.end_seq
        if end <= before:
            self.duplicate_packets += 1
        else:
            if not self._ooo and packet.seq <= before:
                self.rcv_nxt = end  # in order, nothing buffered
            else:
                self._insert(packet.seq, end)
            advanced = self.rcv_nxt - before
            if advanced > 0:
                self.received_bytes += advanced
                if self.on_data is not None:
                    self.on_data(advanced, now)

        ack = Packet(self.flow_id, _ACK, ACK_SIZE, 0, 0, self.rcv_nxt,
                     self.user_id)
        ack.sent_time = now
        if not packet.retransmit:
            # Karn's algorithm: never derive RTT from retransmissions.
            ack.ack_of_sent_time = packet.sent_time
        if self._ooo:
            ack.sack_blocks = tuple(self._ooo[-MAX_SACK_BLOCKS:])
        if packet.ecn_marked:
            ack.ecn_echo = True
        if self.jitter is not None:
            when = max(now + self.jitter.ack_delay(), self._next_ack_time)
            self._next_ack_time = when
            self.sim.call_at(when, functools.partial(self.transmit, ack))
        else:
            self.transmit(ack)

    def _insert(self, seq: int, end: int) -> None:
        # `_ooo` is sorted, and no two of its blocks touch: merge
        # [lo, end) with its neighbours in place.
        lo = max(seq, self.rcv_nxt)
        ooo = self._ooo
        i = bisect.bisect_left(ooo, (lo,))
        if i and ooo[i - 1][1] >= lo:
            i -= 1
            lo = ooo[i][0]
        j = i
        while j < len(ooo) and ooo[j][0] <= end:
            end = max(end, ooo[j][1])
            j += 1
        if lo <= self.rcv_nxt:  # only a block at rcv_nxt: delivered
            self.rcv_nxt = end
            del ooo[:j]
        else:
            ooo[i:j] = [(lo, end)]


class Connection:
    """A sender/receiver pair attached to a built topology."""

    def __init__(self, sim: Simulator, path: PathHandles, flow_id: str,
                 cca: CongestionControl, mss: int = DEFAULT_MSS,
                 user_id: str = "",
                 on_data: Optional[Callable[[int, float], None]] = None,
                 ecn: bool = False, jitter=None):
        self.flow_id = flow_id
        self.sender = TcpSender(
            sim, flow_id, cca, transmit=path.entry.send, mss=mss,
            user_id=user_id, ecn=ecn, jitter=jitter)
        self.receiver = TcpReceiver(
            sim, flow_id, transmit=path.reverse_entry.send,
            on_data=on_data, user_id=user_id,
            jitter=jitter)
        path.dst_host.attach(flow_id, self.receiver.on_packet)
        path.src_host.attach(flow_id, self.sender.on_packet)

    @property
    def cca(self) -> CongestionControl:
        return self.sender.cca

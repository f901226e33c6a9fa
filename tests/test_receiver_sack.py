"""Unit tests for receiver reassembly, SACK generation, and sender
scoreboard interaction (driven directly, no network)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cca import RenoCca
from repro.cca.base import CongestionControl
from repro.sim import Simulator
from repro.sim.packet import Packet, PacketKind
from repro.tcp.endpoint import COMPACT_AFTER, TcpReceiver, TcpSender

from .helpers import ReferenceScoreboard, make_data


def data(seq, payload=1000, flow="f", retransmit=False, sent_time=0.0):
    p = make_data(flow, seq=seq, payload=payload)
    p.retransmit = retransmit
    p.sent_time = sent_time
    return p


class TestReceiverReassembly:
    def make(self):
        sim = Simulator()
        acks = []
        receiver = TcpReceiver(sim, "f", transmit=acks.append)
        return sim, receiver, acks

    def test_in_order_advances(self):
        sim, rx, acks = self.make()
        rx.on_packet(data(0))
        rx.on_packet(data(1000))
        assert rx.rcv_nxt == 2000
        assert [a.ack for a in acks] == [1000, 2000]

    def test_gap_holds_cumulative_ack(self):
        sim, rx, acks = self.make()
        rx.on_packet(data(0))
        rx.on_packet(data(2000))  # hole at 1000
        assert rx.rcv_nxt == 1000
        assert acks[-1].ack == 1000
        assert acks[-1].sack_blocks == ((2000, 3000),)

    def test_hole_fill_jumps_ack(self):
        sim, rx, acks = self.make()
        rx.on_packet(data(0))
        rx.on_packet(data(2000))
        rx.on_packet(data(3000))
        rx.on_packet(data(1000))  # fills the hole
        assert rx.rcv_nxt == 4000
        assert acks[-1].ack == 4000
        assert acks[-1].sack_blocks == ()

    def test_multiple_disjoint_holes(self):
        sim, rx, acks = self.make()
        rx.on_packet(data(0))
        rx.on_packet(data(2000))
        rx.on_packet(data(4000))
        assert len(acks[-1].sack_blocks) == 2
        assert (2000, 3000) in acks[-1].sack_blocks
        assert (4000, 5000) in acks[-1].sack_blocks

    def test_sack_blocks_capped_at_three(self):
        sim, rx, acks = self.make()
        for seq in (1000, 3000, 5000, 7000, 9000):
            rx.on_packet(data(seq))
        assert len(acks[-1].sack_blocks) == 3

    def test_duplicate_counted_not_delivered_twice(self):
        sim, rx, acks = self.make()
        rx.on_packet(data(0))
        rx.on_packet(data(0))
        assert rx.received_bytes == 1000
        assert rx.duplicate_packets == 1

    def test_karn_no_echo_for_retransmits(self):
        sim, rx, acks = self.make()
        rx.on_packet(data(0, retransmit=True, sent_time=5.0))
        assert acks[-1].ack_of_sent_time is None
        rx.on_packet(data(1000, sent_time=6.0))
        assert acks[-1].ack_of_sent_time == 6.0

    def test_on_data_callback_gets_in_order_bytes_only(self):
        sim = Simulator()
        got = []
        rx = TcpReceiver(sim, "f", transmit=lambda p: None,
                         on_data=lambda n, t: got.append(n))
        rx.on_packet(data(1000))  # out of order: nothing delivered
        assert got == []
        rx.on_packet(data(0))     # delivers 2000 contiguous bytes
        assert got == [2000]

    def test_ignores_ack_packets(self):
        sim, rx, acks = self.make()
        p = Packet("f", PacketKind.ACK, ack=500)
        rx.on_packet(p)
        assert rx.rcv_nxt == 0
        assert acks == []


class _ReferenceReceiver:
    """The reassembly rule written the slow way: every arrival merges
    into the full interval list, whatever shortcuts the receiver has."""

    def __init__(self):
        self.rcv_nxt = 0
        self.ooo = []
        self.received_bytes = 0
        self.duplicate_packets = 0

    def arrive(self, seq, end):
        before = self.rcv_nxt
        if end <= self.rcv_nxt:
            self.duplicate_packets += 1
        else:
            merged = []
            for lo, hi in sorted(self.ooo + [(max(seq, self.rcv_nxt), end)]):
                if merged and lo <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
            while merged and merged[0][0] <= self.rcv_nxt:
                self.rcv_nxt = max(self.rcv_nxt, merged.pop(0)[1])
            self.ooo = merged
        self.received_bytes += self.rcv_nxt - before
        return self.rcv_nxt, tuple(self.ooo[-3:])


#: (start, length) in units of 100 bytes over a 4,600-byte stream:
#: duplicates, overlaps, stale retransmissions below rcv_nxt, and long
#: in-order runs with nothing buffered all turn up.
ARRIVAL_ORDERS = st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6)),
                          min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(ARRIVAL_ORDERS)
def test_receiver_matches_reference_on_any_arrival_order(arrivals):
    check_receiver_against_reference(arrivals)


@pytest.mark.fuzz
@settings(max_examples=5000, deadline=None)
@given(ARRIVAL_ORDERS)
def test_receiver_matches_reference_on_any_arrival_order_at_length(arrivals):
    check_receiver_against_reference(arrivals)


def check_receiver_against_reference(arrivals):
    acks = []
    rx = TcpReceiver(Simulator(), "f", transmit=acks.append)
    ref = _ReferenceReceiver()
    for start, length in arrivals:
        seq, payload = start * 100, length * 100
        expected = ref.arrive(seq, seq + payload)
        rx.on_packet(data(seq, payload=payload))
        assert (acks[-1].ack, acks[-1].sack_blocks) == expected
        assert rx.rcv_nxt == ref.rcv_nxt
        assert rx._ooo == ref.ooo
        assert rx.received_bytes == ref.received_bytes
        assert rx.duplicate_packets == ref.duplicate_packets
    assert len(acks) == len(arrivals)


class _WideOpen(CongestionControl):
    """A window that never reacts."""

    name = "wide-open"
    cwnd = 1e6


def segment_at(tx, seq):
    """The sender's outstanding scoreboard segment that starts at ``seq``."""
    return next(seg for seg in tx._order[tx._head:] if seg.seq == seq)


def outstanding_flags(tx):
    """``{seq: (sacked, lost)}`` of the sender's outstanding segments."""
    return {seg.seq: (seg.sacked, seg.lost) for seg in tx._order[tx._head:]}


class TestSenderScoreboard:
    def make(self):
        sim = Simulator()
        sent = []
        sender = TcpSender(sim, "f", RenoCca(initial_cwnd=50.0),
                           transmit=sent.append, mss=1000)
        return sim, sender, sent

    def ack_packet(self, ack, sacks=()):
        p = Packet("f", PacketKind.ACK, ack=ack)
        p.sack_blocks = tuple(sacks)
        return p

    def test_pipe_tracks_sends_and_acks(self):
        sim, tx, sent = self.make()
        tx.write(5000)
        assert tx._pipe_bytes == 5000
        tx.on_packet(self.ack_packet(2000))
        assert tx._pipe_bytes == 3000
        assert tx.snd_una == 2000

    def test_sack_reduces_pipe_without_advancing_una(self):
        sim, tx, sent = self.make()
        tx.write(5000)
        tx.on_packet(self.ack_packet(0, sacks=[(2000, 3000)]))
        assert tx.snd_una == 0
        assert tx._pipe_bytes == 4000

    def test_fack_loss_marking_triggers_retransmit(self):
        sim, tx, sent = self.make()
        tx.write(10_000)
        assert len(sent) == 10
        # SACK far above seq 0: segments 0..6000 are FACK-lost
        # (threshold = 10000 - 3*1000).
        tx.on_packet(self.ack_packet(0, sacks=[(9000, 10_000)]))
        assert tx.in_recovery
        retx = [p for p in sent if p.retransmit]
        assert retx and retx[0].seq == 0

    def test_one_md_per_window(self):
        sim, tx, sent = self.make()
        cca = tx.cca
        tx.write(10_000)
        before = cca.cwnd
        tx.on_packet(self.ack_packet(0, sacks=[(9000, 10_000)]))
        after_first = cca.cwnd
        assert after_first < before
        # Another SACK for the same window: no further decrease.
        tx.on_packet(self.ack_packet(0, sacks=[(8000, 10_000)]))
        assert cca.cwnd == after_first

    def test_delivered_counts_sacked_bytes_once(self):
        sim, tx, sent = self.make()
        tx.write(5000)
        tx.on_packet(self.ack_packet(0, sacks=[(2000, 3000)]))
        assert tx.delivered == 1000
        tx.on_packet(self.ack_packet(5000))
        assert tx.delivered == 5000

    def test_recovery_exits_at_recover_point(self):
        sim, tx, sent = self.make()
        tx.write(10_000)
        tx.on_packet(self.ack_packet(0, sacks=[(9000, 10_000)]))
        assert tx.in_recovery
        tx.on_packet(self.ack_packet(10_000))
        assert not tx.in_recovery
        assert tx._pipe_bytes == 0

    def test_sack_walk_is_amortised_over_acks(self):
        # One hole at the front of a 2,000-segment window and 1,999
        # ACKs, each extending the same SACK block by one segment: the
        # scoreboard must be walked once overall, not once per ACK.
        # Every read of the send-ordered list during a SACK walk counts.
        class CountingOrder(list):
            visits = 0
            counting = False

            def __getitem__(self, index):
                if self.counting:
                    self.visits += 1
                return super().__getitem__(index)

        class CountingSender(TcpSender):
            def _apply_sack_blocks(self, blocks):
                self._order.counting = True
                try:
                    super()._apply_sack_blocks(blocks)
                finally:
                    self._order.counting = False

        sent = []
        tx = CountingSender(Simulator(), "f", _WideOpen(),
                            transmit=sent.append, mss=1000)
        tx._order = order = CountingOrder()
        n = 2000
        tx.write(n * 1000)
        assert len(sent) == n and len(order) == n
        for k in range(2, n + 1):
            tx.on_packet(self.ack_packet(0, sacks=[(1000, k * 1000)]))
        assert tx.delivered == (n - 1) * 1000
        assert tx._pipe_bytes <= 1000   # only the hole's retransmission
        # Each ACK marks one segment, so each reads the list at least once.
        assert n - 1 <= order.visits <= 3 * (n - 1)

    def test_acked_segments_wait_at_most_compact_after_for_compaction(self):
        # A BBR-sized window acked one segment at a time: the list holds
        # the outstanding segments and at most COMPACT_AFTER acked ones.
        class _Window(CongestionControl):
            name = "window"
            cwnd = 2000.0

        sent = []
        tx = TcpSender(Simulator(), "f", _Window(), transmit=sent.append,
                       mss=1000)
        tx.set_infinite_backlog()
        window = 2000
        longest = 0
        for k in range(1, 3 * window + 1):
            tx.on_packet(self.ack_packet(k * 1000))
            outstanding = (tx.snd_nxt - tx.snd_una) // 1000
            assert outstanding == window
            assert len(tx._order) <= outstanding + COMPACT_AFTER
            longest = max(longest, len(tx._order))
        assert len(sent) == 4 * window
        assert longest == window + COMPACT_AFTER

    def test_rto_forgets_where_sack_walks_stopped(self):
        # Go-back-N rebuilds the scoreboard, so segments re-sent inside
        # a block the receiver still advertises are new to it: the next
        # ACK carrying that block must mark them, not resume past them.
        sim = Simulator()
        sent = []
        tx = TcpSender(sim, "f", _WideOpen(), transmit=sent.append,
                       mss=1000)
        tx.write(10_000)
        tx.on_packet(self.ack_packet(0, sacks=[(3000, 6000)]))
        assert tx._pipe_bytes == 7000
        sim.run(until=5.0)   # nothing else arrives: the RTO fires
        assert tx.timeouts >= 1
        assert tx._pipe_bytes == 10_000   # everything re-sent
        tx.on_packet(self.ack_packet(1000, sacks=[(3000, 6000)]))
        assert [segment_at(tx, seq).sacked for seq in (3000, 4000, 5000)] \
            == [True, True, True]
        assert tx._pipe_bytes == 10_000 - 1000 - 3000

    def test_sack_walk_resumed_after_go_back_n_stays_inside_its_block(self):
        # After go-back-N an ACK can advertise a block the sender has
        # not re-sent up to yet; the walk that found nothing must not
        # resume on the segments sent next, which sit *below* the block.
        sim = Simulator()
        sent = []
        cca = _WideOpen()
        tx = TcpSender(sim, "f", cca, transmit=sent.append, mss=1000)
        tx.write(10_000)
        tx.on_packet(self.ack_packet(0, sacks=[(5000, 8000)]))
        cca.cwnd = 2.0
        sim.run(until=5.0)   # RTO: seqs 0 and 1000 go out again
        assert tx.timeouts >= 1 and tx.snd_nxt == 2000
        tx.on_packet(self.ack_packet(1000, sacks=[(5000, 8000)]))
        cca.cwnd = 10.0
        tx.on_packet(self.ack_packet(2000, sacks=[(5000, 8000)]))
        assert tx.snd_nxt == 10_000
        tx.on_packet(self.ack_packet(3000, sacks=[(5000, 8000)]))
        assert [segment_at(tx, seq).sacked
                for seq in (3000, 4000, 5000, 6000, 7000, 8000)] \
            == [False, False, True, True, True, False]


class _RateLog(RenoCca):
    """Reno that keeps the delivery rate of every ACK sample."""

    def __init__(self):
        super().__init__(initial_cwnd=12.0)
        self.rates = []

    def on_ack(self, sample):
        self.rates.append(sample.delivery_rate)
        super().on_ack(sample)


#: One ACK: (cumulative advance, SACKed units above the new ack, ms
#: since the previous ACK), in units of half a segment, so that acks
#: and blocks also land inside segments; plus the step (modulo the
#: program's length) before which the RTO fires.
SENDER_PROGRAMS = st.tuples(
    st.lists(st.tuples(st.integers(0, 6),
                       st.frozensets(st.integers(0, 40), max_size=14),
                       st.integers(0, 30)),
             min_size=1, max_size=40),
    st.integers(0, 40))


@settings(max_examples=200, deadline=None)
@given(SENDER_PROGRAMS)
def test_sender_matches_reference_on_any_ack_stream(program):
    check_sender_against_reference(*program)


@pytest.mark.fuzz
@settings(max_examples=5000, deadline=None)
@given(SENDER_PROGRAMS)
def test_sender_matches_reference_on_any_ack_stream_at_length(program):
    check_sender_against_reference(*program)


def check_sender_against_reference(acks, rto_at):
    half = 500
    runs = []
    for cls in (TcpSender, ReferenceScoreboard):
        sim, sent = Simulator(), []
        tx = cls(sim, "f", _RateLog(), transmit=sent.append, mss=1000)
        tx.write(60 * 1000 + half)
        runs.append((sim, tx, sent))
    (sim, tx, sent), (ref_sim, ref, ref_sent) = runs
    for step, (advance, sacked, gap_ms) in enumerate(acks):
        if step == rto_at % len(acks):
            # Everything outstanding times out once: go-back-N.
            until = sim.now + tx.rtt.rto + 1e-3
            sim.run(until=until)
            ref_sim.run(until=until)
        until = sim.now + gap_ms / 1000
        sim.run(until=until)
        ref_sim.run(until=until)
        # What a receiver could acknowledge: anything ever sent.
        high = max(p.end_seq for p in sent)
        ack = min(tx.snd_una + advance * half, high)
        units = sorted(u for u in sacked if ack + (u + 2) * half <= high)
        blocks = []
        for u in units:
            lo = ack + (u + 1) * half
            if blocks and blocks[-1][1] == lo:
                blocks[-1] = (blocks[-1][0], lo + half)
            else:
                blocks.append((lo, lo + half))
        last = sent[-1]
        for sender in (tx, ref):
            packet = Packet("f", PacketKind.ACK, ack=ack)
            packet.sack_blocks = tuple(blocks[-3:])
            if not last.retransmit:
                packet.ack_of_sent_time = last.sent_time
            sender.on_packet(packet)
        assert tx._pipe_bytes == ref._pipe_bytes
        assert tx.delivered == ref.delivered
        assert (tx.snd_una, tx.snd_nxt, tx.in_recovery) \
            == (ref.snd_una, ref.snd_nxt, ref.in_recovery)
        assert [(p.seq, p.end_seq, p.retransmit) for p in sent] \
            == [(p.seq, p.end_seq, p.retransmit) for p in ref_sent]
        assert tx.cca.rates == ref.cca.rates
        assert outstanding_flags(tx) == ref.flags()

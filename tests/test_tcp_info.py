"""Unit tests for TCPInfo limit-state accounting."""

import pytest

from repro.cca.base import CongestionControl
from repro.sim import Packet, PacketKind, Simulator
from repro.tcp import LimitState, TcpInfoTracker, TcpSender
from repro.units import HEADER_BYTES


def test_initial_state_is_idle():
    t = TcpInfoTracker()
    assert t.state is LimitState.IDLE


def test_durations_accumulate_per_state():
    t = TcpInfoTracker(start_time=0.0)
    t.set_state(LimitState.BUSY, 1.0)           # idle 0..1
    t.set_state(LimitState.APP_LIMITED, 3.0)    # busy 1..3
    t.set_state(LimitState.BUSY, 7.0)           # app  3..7
    assert t.duration(LimitState.IDLE, 10.0) == pytest.approx(1.0)
    assert t.duration(LimitState.BUSY, 10.0) == pytest.approx(2.0 + 3.0)
    assert t.duration(LimitState.APP_LIMITED, 10.0) == pytest.approx(4.0)


def test_current_state_duration_includes_open_interval():
    t = TcpInfoTracker()
    t.set_state(LimitState.RWND_LIMITED, 2.0)
    assert t.duration(LimitState.RWND_LIMITED, 5.0) == pytest.approx(3.0)


def test_snapshot_reports_microseconds():
    t = TcpInfoTracker(start_time=0.0)
    t.set_state(LimitState.APP_LIMITED, 0.0)
    t.set_state(LimitState.BUSY, 2.0)
    snap = t.snapshot(4.0)
    assert snap.app_limited_us == pytest.approx(2_000_000)
    assert snap.busy_time_us == pytest.approx(2_000_000)
    assert snap.elapsed_time_us == pytest.approx(4_000_000)


def test_snapshot_throughput_is_delta_based():
    t = TcpInfoTracker(start_time=0.0)
    t.bytes_acked = 1000
    first = t.snapshot(1.0)
    assert first.throughput_bps == pytest.approx(1000.0)
    t.bytes_acked = 1000  # no progress
    second = t.snapshot(2.0)
    assert second.throughput_bps == 0.0
    t.bytes_acked = 4000
    third = t.snapshot(4.0)
    assert third.throughput_bps == pytest.approx(1500.0)


def test_busy_time_includes_window_limited_states():
    t = TcpInfoTracker(start_time=0.0)
    t.set_state(LimitState.CWND_LIMITED, 0.0)
    t.set_state(LimitState.RWND_LIMITED, 1.0)
    t.set_state(LimitState.BUSY, 2.0)
    snap = t.snapshot(3.0)
    assert snap.busy_time_us == pytest.approx(3_000_000)
    assert snap.rwnd_limited_us == pytest.approx(1_000_000)
    assert snap.cwnd_limited_us == pytest.approx(1_000_000)


def test_rtt_fields_passed_through():
    t = TcpInfoTracker()
    snap = t.snapshot(1.0, min_rtt_s=0.05, smoothed_rtt_s=0.06)
    assert snap.min_rtt_s == 0.05
    assert snap.smoothed_rtt_s == 0.06


class _FixedKnobs(CongestionControl):
    """A CCA that never moves: the walk below decides every transition."""

    name = "fixed"

    def __init__(self, cwnd, pacing_rate):
        self._cwnd = cwnd
        self._pacing_rate = pacing_rate

    @property
    def cwnd(self):
        return self._cwnd

    @property
    def pacing_rate(self):
        return self._pacing_rate


def test_sender_walks_every_limit_state():
    # IDLE -> BUSY -> CWND_LIMITED -> RWND_LIMITED -> BUSY ->
    # APP_LIMITED -> IDLE on a sender driven by hand: a four-segment
    # window paced at one segment per `gap`, six segments to send.
    sim = Simulator()
    sent = []
    tx = TcpSender(sim, "f", _FixedKnobs(4.0, 1_000_000.0),
                   transmit=sent.append, mss=1000)
    gap = (1000 + HEADER_BYTES) / 1_000_000.0
    walk = []
    set_state = tx.tracker.set_state

    def record(state, now):
        walk.append((state, now))
        set_state(state, now)

    tx.tracker.set_state = record

    def ack(number, rwnd=None):
        packet = Packet("f", PacketKind.ACK, ack=number)
        packet.rwnd = rwnd
        tx.on_packet(packet)

    sim.schedule_at(1.0, lambda: tx.write(6000))
    # The window is full after four paced segments: cwnd binds.
    sim.schedule_at(2.0, lambda: ack(1000, rwnd=3000))      # rwnd binds
    sim.schedule_at(3.0, lambda: ack(4000, rwnd=1 << 30))   # reopens
    sim.schedule_at(4.0, lambda: ack(6000))
    sim.schedule_at(4.5, tx.close)
    sim.run(until=5.0)
    snap = tx.snapshot()   # a closed, drained sender reads IDLE

    assert len(sent) == 6
    assert [state for state, _ in walk] == [
        LimitState.BUSY, LimitState.CWND_LIMITED, LimitState.RWND_LIMITED,
        LimitState.BUSY, LimitState.APP_LIMITED, LimitState.IDLE]
    assert [when for _, when in walk] == pytest.approx(
        [1.0, 1.0 + 3 * gap, 2.0, 3.0, 3.0 + gap, 5.0], abs=1e-12)
    durations = {state: tx.tracker.duration(state, 5.0)
                 for state in LimitState}
    assert durations == pytest.approx({
        LimitState.IDLE: 1.0,
        LimitState.BUSY: 4 * gap,
        LimitState.CWND_LIMITED: 1.0 - 3 * gap,
        LimitState.RWND_LIMITED: 1.0,
        LimitState.APP_LIMITED: 2.0 - gap,
    }, abs=1e-12)
    assert snap.busy_time_us == pytest.approx(2_000_000 + gap * 1e6)
    assert snap.app_limited_us == pytest.approx((2.0 - gap) * 1e6)
    assert tx.completed

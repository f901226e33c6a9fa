"""BBR (v1-style) congestion control.

A model of Google's BBRv1 state machine faithful to the published
design: STARTUP's 2.89x pacing gain until bandwidth plateaus, DRAIN
back to one BDP, the 8-phase PROBE_BW pacing-gain cycle
[1.25, 0.75, 1 x 6], and periodic PROBE_RTT floors.  Bandwidth is the
windowed max of delivery-rate samples (app-limited samples excluded);
RTprop is the windowed min RTT.

This is the CCA shown by Ware et al. (IMC '19) -- cited in the paper's
introduction -- to take more than its fair share against loss-based
CCAs in deep buffers; experiment E6 reproduces that shape, and it
serves as elastic-but-not-loss-based cross traffic in Figure 3.
"""

from __future__ import annotations

from ..obs.bus import EventKind
from .base import AckSample, CongestionControl
from .filters import WindowedExtremum

STARTUP_GAIN = 2.885
DRAIN_GAIN = 1.0 / STARTUP_GAIN
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
PROBE_RTT_INTERVAL = 10.0     # seconds between PROBE_RTT visits
PROBE_RTT_DURATION = 0.2      # seconds spent at the cwnd floor
BW_WINDOW_ROUNDS = 10         # bandwidth filter window, in round trips
CWND_GAIN = 2.0
MIN_CWND_PACKETS = 4.0
INITIAL_CWND = 10.0           # packets
INITIAL_RATE = 1_000_000.0    # bytes/second, before any sample


class BbrCca(CongestionControl):
    """BBRv1-style model-based congestion control."""

    name = "bbr"

    def __init__(self):
        self._state = "STARTUP"
        self._cwnd = INITIAL_CWND
        self._pacing_rate = INITIAL_RATE
        self._bw_filter = WindowedExtremum(BW_WINDOW_ROUNDS, mode="max")
        self._rtprop: float | None = None
        self._rtprop_stamp = 0.0
        self._round_count = 0
        self._round_end_delivered = 0
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._cycle_index = 0
        self._cycle_stamp = 0.0
        self._probe_rtt_done_stamp: float | None = None
        self._prior_cwnd = 0.0

    # -- knobs ---------------------------------------------------------------

    @property
    def cwnd(self) -> float:
        return self._cwnd

    @property
    def pacing_rate(self) -> float:
        return self._pacing_rate

    @property
    def state(self) -> str:
        return self._state

    @property
    def bandwidth(self) -> float:
        """Current bottleneck-bandwidth estimate (bytes/second)."""
        return self._bw_filter.value or 0.0

    def _bdp_packets(self, gain: float = 1.0) -> float:
        bw = self.bandwidth
        if bw <= 0 or self._rtprop is None:
            return self._cwnd
        return gain * bw * self._rtprop / self.mss

    # -- event handling --------------------------------------------------------

    def on_ack(self, sample: AckSample) -> None:
        now = sample.now
        state_before = self._state
        self._update_round(sample)
        if (sample.delivery_rate is not None
                and (not sample.delivery_rate_app_limited
                     or sample.delivery_rate > self.bandwidth)):
            self._bw_filter.update(self._round_count, sample.delivery_rate)
        if sample.rtt is not None:
            if (self._rtprop is None or sample.rtt <= self._rtprop
                    or now - self._rtprop_stamp > PROBE_RTT_INTERVAL):
                self._rtprop = sample.rtt
                self._rtprop_stamp = now

        if self._state == "STARTUP":
            self._check_full_pipe()
            if self._state == "STARTUP":
                self._apply_gains(STARTUP_GAIN, STARTUP_GAIN)
        if self._state == "DRAIN":
            self._apply_gains(DRAIN_GAIN, STARTUP_GAIN)
            if sample.inflight_bytes <= self._bdp_packets() * self.mss:
                self._enter_probe_bw(now)
        if self._state == "PROBE_BW":
            self._advance_cycle(now, sample)
            gain = PROBE_BW_GAINS[self._cycle_index]
            self._apply_gains(gain, CWND_GAIN)
        if self._state == "PROBE_RTT":
            self._handle_probe_rtt(now, sample)
        self._maybe_enter_probe_rtt(now)
        if self._state != state_before:
            self._trace(now, EventKind.MODE, meta={
                "from": state_before, "to": self._state})

    def _update_round(self, sample: AckSample) -> None:
        if sample.delivered_total >= self._round_end_delivered:
            self._round_count += 1
            self._round_end_delivered = (
                sample.delivered_total + sample.inflight_bytes)

    def _check_full_pipe(self) -> None:
        bw = self.bandwidth
        if bw > self._full_bw * 1.25:
            self._full_bw = bw
            self._full_bw_rounds = 0
            return
        self._full_bw_rounds += 1
        if self._full_bw_rounds >= 3:
            self._state = "DRAIN"

    def _enter_probe_bw(self, now: float) -> None:
        self._state = "PROBE_BW"
        self._cycle_index = 1  # start at the 0.75 phase after DRAIN
        self._cycle_stamp = now

    def _advance_cycle(self, now: float, sample: AckSample) -> None:
        rtprop = self._rtprop if self._rtprop is not None else 0.1
        gain = PROBE_BW_GAINS[self._cycle_index]
        elapsed = now - self._cycle_stamp
        advance = elapsed > rtprop
        if gain == 0.75:
            # Leave the drain phase as soon as the queue is drained.
            advance = advance or (
                sample.inflight_bytes <= self._bdp_packets() * self.mss)
        if advance:
            self._cycle_index = (self._cycle_index + 1) % len(PROBE_BW_GAINS)
            self._cycle_stamp = now

    def _maybe_enter_probe_rtt(self, now: float) -> None:
        if self._state in ("PROBE_RTT", "STARTUP", "DRAIN"):
            return
        if self._rtprop is None:
            return
        if now - self._rtprop_stamp > PROBE_RTT_INTERVAL:
            self._state = "PROBE_RTT"
            self._prior_cwnd = self._cwnd
            self._cwnd = MIN_CWND_PACKETS
            self._probe_rtt_done_stamp = None

    def _handle_probe_rtt(self, now: float, sample: AckSample) -> None:
        self._cwnd = MIN_CWND_PACKETS
        if self._probe_rtt_done_stamp is None:
            if sample.inflight_bytes <= MIN_CWND_PACKETS * self.mss:
                self._probe_rtt_done_stamp = now + PROBE_RTT_DURATION
        elif now >= self._probe_rtt_done_stamp:
            self._rtprop_stamp = now
            self._cwnd = max(self._prior_cwnd, MIN_CWND_PACKETS)
            self._enter_probe_bw(now)

    def _apply_gains(self, pacing_gain: float, cwnd_gain: float) -> None:
        bw = self.bandwidth
        if bw <= 0 or self._rtprop is None:
            return
        self._pacing_rate = pacing_gain * bw
        if self._state != "PROBE_RTT":
            self._cwnd = max(self._bdp_packets(cwnd_gain), MIN_CWND_PACKETS)

    # BBR ignores individual losses (no multiplicative decrease); an RTO
    # still resets conservatively, as Linux BBR does.
    def on_rto(self, now: float) -> None:
        self._cwnd = MIN_CWND_PACKETS

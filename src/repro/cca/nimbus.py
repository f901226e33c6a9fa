"""Nimbus: elasticity-detecting congestion control (Goyal et al.,
SIGCOMM 2022 [54]).

Nimbus runs a delay-controlling rate-based CCA while superimposing
sinusoidal rate pulses.  From its own send rate S and delivery rate R
it estimates the cross-traffic rate ẑ = μ·S/R - S; the spectral energy
of ẑ at the pulse frequency is the *elasticity* of the cross traffic.
When mode switching is enabled, high elasticity flips Nimbus into a
TCP-competitive (Cubic-driven) mode; low elasticity returns it to
delay mode.

The paper reproduced here (§3.2) proposes running Nimbus **with mode
switching disabled but pulses maintained** as an active measurement
tool: the elasticity readings then report whether any cross traffic on
the path is contending for bandwidth.  Construct with
``mode_switching=False`` (the default here, unlike deployed Nimbus)
for that configuration; :class:`repro.core.probe.ElasticityProbe`
wraps the whole arrangement.

Deviations from the deployed system, also listed in DESIGN.md:
symmetric sinusoidal pulses (same spectral signature as Nimbus's
asymmetric pulse), and a proportional queue-delay controller for delay
mode.
"""

from __future__ import annotations

import math

from ..core.elasticity import (ElasticityEstimator, PulseGenerator,
                               cross_traffic_estimate)
from ..errors import ConfigError
from ..obs.bus import EventKind
from ..units import DEFAULT_MSS
from .base import AckSample, CongestionControl
from .cubic import CubicCca
from .filters import WindowedExtremum


class NimbusCca(CongestionControl):
    """Nimbus congestion control / elasticity probe.

    Args:
        capacity_hint: bottleneck capacity μ in bytes/second; None
            estimates μ as a windowed max of delivery-rate samples.
            (A wrong μ adds (k-1)·S to ẑ for a hint k times the true
            capacity, so the probe's own pulse reads as elasticity;
            see :mod:`repro.core.elasticity`.)
        pulse_freq: pulse frequency f_p (Hz).
        pulse_amplitude: pulse amplitude as a fraction of μ.
        delay_target: target standing queueing delay (seconds).
        mode_switching: enable the delay <-> TCP-competitive switch;
            False is the paper's measurement configuration.
        fixed_mode: with switching disabled, which base controller to
            run: "delay" (the measurement default; pair it with a
            raised ``min_rate_frac`` so it cannot be starved) or "tcp"
            (Cubic-competitive).
        elasticity_high / elasticity_low: switch thresholds.
        sample_interval: ẑ sampling cadence (seconds).
        initial_rate: pacing rate before any feedback (bytes/second).
        min_rate_frac: floor on the delay-mode rate as a fraction of μ.
            Deployed Nimbus uses a small floor (it switches modes when
            squeezed); a *measurement* probe with switching disabled
            should raise this (~0.25) so backlogged cross traffic
            cannot squeeze its pulses into invisibility.
    """

    name = "nimbus"

    #: queue-feedback gain for the delay-mode controller.
    QUEUE_GAIN = 0.5
    #: fixed normalization for the queue feedback (seconds); see
    #: _update_control for why the gain must not scale with the target.
    GAIN_REFERENCE_DELAY = 0.05
    #: minimum time between mode switches (seconds).
    MODE_DWELL = 2.0

    def __init__(self, mss: int = DEFAULT_MSS,
                 capacity_hint: float | None = None,
                 pulse_freq: float = 5.0, pulse_amplitude: float = 0.25,
                 delay_target: float | None = None,
                 mode_switching: bool = False, fixed_mode: str = "delay",
                 elasticity_high: float = 3.0, elasticity_low: float = 1.5,
                 sample_interval: float = 0.01, smoothing: float = 0.06,
                 initial_rate: float = 1_250_000.0,
                 min_rate_frac: float = 0.05):
        super().__init__(mss=mss)
        if delay_target is None:
            # The standing queue must absorb the worst-case drain of a
            # down-pulse (amplitude * period / pi seconds of queueing),
            # or the bottleneck idles and ẑ picks up the probe's own
            # pulse; default to twice that drain time.
            delay_target = min(
                2.0 * pulse_amplitude / (math.pi * pulse_freq), 0.05)
        if delay_target <= 0:
            raise ConfigError(f"delay_target must be positive: {delay_target}")
        if elasticity_low >= elasticity_high:
            raise ConfigError("need elasticity_low < elasticity_high")
        self.capacity_hint = capacity_hint
        self.pulses = PulseGenerator(pulse_freq, pulse_amplitude)
        self.delay_target = delay_target
        self.mode_switching = mode_switching
        self.elasticity_high = elasticity_high
        self.elasticity_low = elasticity_low
        self.sample_interval = sample_interval
        # Slow pulses need longer FFT windows (several periods) and a
        # comparison band that reaches below the pulse frequency.
        est_window = max(5.0, 10.0 / pulse_freq)
        est_band = (min(1.0, pulse_freq / 4.0), 12.0)
        self.estimator = ElasticityEstimator(
            pulse_freq=pulse_freq, sample_interval=sample_interval,
            window=est_window, band=est_band)

        self._mu_filter = WindowedExtremum(window=10.0, mode="max")
        self._smooth_bins = max(1, int(round(smoothing / sample_interval)))
        self._bin_idx = 0
        self._send_in_bin = 0
        self._recv_in_bin = 0
        # Full bin histories: ẑ compares R(t) against S(t - srtt),
        # because this instant's deliveries reflect what was sent one
        # RTT ago; contemporaneous S would alias the probe's own pulse
        # into ẑ whenever the RTT is comparable to the pulse period.
        self._send_bins: list[int] = []
        self._recv_bins: list[int] = []
        # The transport reports payload bytes; μ is a wire rate.  The
        # ~3.6% difference looks like phantom cross traffic in ẑ and,
        # worse, biases the delay controller's fair-share term low
        # enough to keep small-target paths just below saturation.
        self._wire_factor = (mss + 52) / mss

        self._base_rate = float(initial_rate)
        self._pacing_rate = float(initial_rate)
        self._cwnd = 20.0
        self._srtt: float | None = None
        self._min_rtt: float | None = None
        self._now = 0.0
        self._z_smoothed = 0.0

        self.min_rate_frac = min_rate_frac
        # Adaptive pulse envelope: on paths whose buffer cannot hold
        # the standing queue plus a full pulse swing, the probe's own
        # drops pulse-lock ẑ and fake elasticity.  The probe learns the
        # buffer depth from the peak queueing delay observed around
        # losses (overflow happens exactly when the queue equals the
        # buffer) and sizes its queue target and pulse amplitude to
        # fit inside it.  The estimate only ratchets upward, so there
        # is no oscillation; deeper-queue losses later (a competitor
        # filling a big buffer) relax the restriction back toward the
        # configured values.
        self._buffer_est: float | None = None
        self._last_loss = float("-inf")
        self._rtt_peak = WindowedExtremum(window=1.0, mode="max")
        self._base_delay_target = delay_target
        self._base_amplitude = pulse_amplitude
        self._pulse_freq = pulse_freq
        if fixed_mode not in ("delay", "tcp"):
            raise ConfigError(f"unknown fixed_mode {fixed_mode!r}")
        self.mode = "delay"
        self._mode_changed_at = 0.0
        self._tcp_inner: CubicCca | None = None
        #: (time, mode) history of mode switches, for analysis
        self.mode_log: list[tuple[float, str]] = []
        if not mode_switching and fixed_mode == "tcp":
            self.mode = "tcp"
            self._tcp_inner = CubicCca(mss=mss)
            self._trace(0.0, EventKind.MODE,
                        meta={"from": "delay", "to": "tcp", "fixed": True})

    # -- knobs -------------------------------------------------------------

    @property
    def cwnd(self) -> float:
        return self._cwnd

    @property
    def pacing_rate(self) -> float:
        return self._pacing_rate

    @property
    def mu(self) -> float:
        """Current capacity estimate μ̂ (bytes/second)."""
        if self.capacity_hint is not None:
            return self.capacity_hint
        filtered = self._mu_filter.value
        return filtered if filtered else self._base_rate

    @property
    def elasticity_readings(self):
        """All elasticity readings so far (the measurement output)."""
        return self.estimator.readings

    # -- event plumbing -------------------------------------------------------

    def on_packet_sent(self, now: float, bytes_sent: int,
                       app_limited: bool) -> None:
        self._advance_bins(now)
        self._send_in_bin += bytes_sent

    def on_ack(self, sample: AckSample) -> None:
        self._advance_bins(sample.now)
        self._recv_in_bin += sample.acked_bytes
        self._srtt = sample.srtt
        self._min_rtt = sample.min_rtt
        if sample.rtt is not None:
            self._rtt_peak.update(sample.now, sample.rtt)
        if (sample.delivery_rate is not None
                and not sample.delivery_rate_app_limited):
            self._mu_filter.update(sample.now, sample.delivery_rate)
        if self._tcp_inner is not None:
            self._tcp_inner.on_ack(sample)
        self._update_control(sample.now)

    def on_loss(self, now: float, lost_bytes: int) -> None:
        self._last_loss = now
        if self._tcp_inner is not None:
            self._tcp_inner.on_loss(now, lost_bytes)
        # Delay mode has no explicit rate cut on loss: losses inflate
        # the measured queueing delay, and the delay controller (which
        # recomputes the rate from scratch on every ACK) backs off
        # through that signal.  Losses do, however, teach us the
        # buffer depth: overflow happens when the queue equals the
        # buffer, so the recent peak queueing delay at loss time is a
        # buffer-depth sample.
        if self.mode != "delay":
            return
        peak_rtt = self._rtt_peak.value
        if peak_rtt is None or self._min_rtt is None:
            return
        queue_at_loss = max(0.0, peak_rtt - self._min_rtt)
        if queue_at_loss <= 1e-4:
            return
        if self._buffer_est is None or queue_at_loss > self._buffer_est:
            self._buffer_est = queue_at_loss
            self._retarget()

    @property
    def _amp_scale(self) -> float:
        """Delivered pulse amplitude as a fraction of the configured one."""
        if self._base_amplitude <= 0:
            return 1.0
        return self.pulses.amplitude_frac / self._base_amplitude

    def _retarget(self) -> None:
        """Fit the queue target and pulse amplitude into the buffer.

        Envelope budget: target ≈ 0.4 x buffer, pulse swing ≤ 0.25 x
        buffer each way, leaving ~0.1 x buffer of headroom so the
        up-lobe peak does not graze the tail-drop limit (grazing
        produces pulse-locked losses, which read as phantom
        elasticity).
        """
        if self._buffer_est is None:
            return
        self.delay_target = min(self._base_delay_target,
                                max(0.4 * self._buffer_est, 0.004))
        max_drain = 0.25 * self._buffer_est
        max_amp = max_drain * math.pi * self._pulse_freq
        self.pulses.amplitude_frac = min(self._base_amplitude,
                                         max(max_amp, 0.02))

    def on_rto(self, now: float) -> None:
        if self._tcp_inner is not None:
            self._tcp_inner.on_rto(now)
        self._base_rate = max(self._base_rate * 0.5,
                              self.min_rate_frac * self.mu)

    # -- rate sampling ----------------------------------------------------------

    def _advance_bins(self, now: float) -> None:
        """Close any ẑ sample bins that ended before ``now``."""
        self._now = now
        width = self.sample_interval
        target_bin = int(now / width)
        while self._bin_idx < target_bin:
            self._close_bin()

    def _mean_rate(self, bins: list[int], end: int) -> float:
        """Mean rate over the ``_smooth_bins`` bins ending at ``end``."""
        lo = max(0, end - self._smooth_bins)
        if end <= lo:
            return 0.0
        return sum(bins[lo:end]) / ((end - lo) * self.sample_interval)

    def _close_bin(self) -> None:
        self._send_bins.append(self._send_in_bin)
        self._recv_bins.append(self._recv_in_bin)
        self._send_in_bin = 0
        self._recv_in_bin = 0
        self._bin_idx += 1
        bin_end = self._bin_idx * self.sample_interval

        srtt = self._srtt if self._srtt is not None else 0.1
        lag_bins = int(round(srtt / self.sample_interval))
        n = len(self._send_bins)
        recv_rate = self._mean_rate(self._recv_bins, n) * self._wire_factor
        send_rate = (self._mean_rate(self._send_bins, n - lag_bins)
                     * self._wire_factor)
        z = cross_traffic_estimate(self.mu, send_rate, recv_rate)
        # Cross traffic cannot exceed the link: unclipped, transient
        # starvation of our ACK stream (R -> 0 in a smoothing window)
        # yields unphysical ẑ spikes whose broadband spectral noise
        # drowns genuine pulse responses.
        z = min(z, 1.5 * self.mu)
        # Light smoothing stabilizes the delay controller; the estimator
        # gets the raw sample to preserve spectral content.
        self._z_smoothed += 0.1 * (z - self._z_smoothed)
        # The significance floor tracks the *delivered* pulse drive: a
        # shrunken pulse elicits proportionally smaller responses, and
        # holding the floor at full scale would mute true detections.
        self.estimator.scale = self.mu * self._amp_scale
        reading = self.estimator.add_sample(bin_end, z)
        # Bins close lazily, so bin_end can trail the live clock; emit
        # at the clock (events must be non-decreasing in time) and keep
        # the bin boundary in meta.
        meta = {"bin_end": bin_end}
        if reading is not None:
            meta["elasticity"] = reading.elasticity
        self._trace(self._now, EventKind.PULSE, z, meta)
        if reading is not None and self.mode_switching:
            self._maybe_switch_mode(bin_end, reading.elasticity)

    # -- control law --------------------------------------------------------------

    def _update_control(self, now: float) -> None:
        mu = self.mu
        srtt = self._srtt if self._srtt is not None else 0.1
        if self.mode == "delay":
            queue_delay = 0.0
            if self._srtt is not None and self._min_rtt is not None:
                queue_delay = max(0.0, self._srtt - self._min_rtt)
            fair_share = max(0.0, mu - self._z_smoothed)
            # Stiffness is normalized by a FIXED reference delay, not
            # by the target: dividing by a small target makes the
            # feedback violent enough to self-oscillate at a few Hz --
            # squarely inside the elasticity band -- which reads as
            # phantom elastic cross traffic on idle paths.
            queue_term = (self.QUEUE_GAIN * mu
                          * (self.delay_target - queue_delay)
                          / self.GAIN_REFERENCE_DELAY)
            self._base_rate = min(max(fair_share + queue_term,
                                      self.min_rate_frac * mu), 1.2 * mu)
        else:
            assert self._tcp_inner is not None
            self._base_rate = self._tcp_inner.cwnd * self.mss / srtt

        rate = self._base_rate + self.pulses.offset(now, mu)
        self._pacing_rate = max(rate, self.min_rate_frac * mu)
        # The window caps rather than clocks transmission.
        self._cwnd = max(4.0, 2.0 * self._pacing_rate * srtt / self.mss)

    def _maybe_switch_mode(self, now: float, elasticity: float) -> None:
        if now - self._mode_changed_at < self.MODE_DWELL:
            return
        srtt = self._srtt if self._srtt is not None else 0.1
        if self.mode == "delay" and elasticity >= self.elasticity_high:
            self.mode = "tcp"
            self._mode_changed_at = now
            start_cwnd = max(4.0, self._base_rate * srtt / self.mss)
            self._tcp_inner = CubicCca(mss=self.mss,
                                       initial_cwnd=start_cwnd)
            self._tcp_inner.ssthresh = start_cwnd
            self.mode_log.append((now, "tcp"))
            self._trace(self._now, EventKind.MODE, elasticity,
                        {"from": "delay", "to": "tcp"})
        elif self.mode == "tcp" and elasticity <= self.elasticity_low:
            self.mode = "delay"
            self._mode_changed_at = now
            self._tcp_inner = None
            self.mode_log.append((now, "delay"))
            self._trace(self._now, EventKind.MODE, elasticity,
                        {"from": "tcp", "to": "delay"})

"""Nimbus: elasticity-detecting congestion control (Goyal et al.,
SIGCOMM 2022 [54]).

Nimbus runs a delay-controlling rate-based CCA while superimposing
sinusoidal rate pulses.  From its own send rate S and delivery rate R
it estimates the cross-traffic rate ẑ = μ·S/R - S; the spectral energy
of ẑ at the pulse frequency is the *elasticity* of the cross traffic.
Deployed Nimbus flips into a TCP-competitive (Cubic-driven) mode when
elasticity is high.

The paper reproduced here (§3.2) proposes running Nimbus **with mode
switching disabled but pulses maintained** as an active measurement
tool: the elasticity readings then report whether any cross traffic on
the path is contending for bandwidth.  That is the only configuration
here.  The delay-mode law is this module's functions and constants,
which the packet :class:`NimbusCca` and the fluid
:class:`repro.fluid.probe.FluidProbe` both call;
:class:`repro.core.probe.ElasticityProbe` wraps the packet one.

Deviations from the deployed system, also listed in DESIGN.md:
symmetric sinusoidal pulses (same spectral signature as Nimbus's
asymmetric pulse), and a proportional queue-delay controller for delay
mode.
"""

from __future__ import annotations

import math

from ..core.elasticity import (ElasticityEstimator, PulseGenerator,
                               cross_traffic_estimate)
from ..obs.bus import BUS as _OBS, EventKind
from ..units import DEFAULT_MSS, HEADER_BYTES
from .base import AckSample, CongestionControl
from .filters import WindowedExtremum

#: queue-feedback gain for the delay-mode controller.
QUEUE_GAIN = 0.5
#: fixed normalization for the queue feedback (seconds); see
#: :func:`delay_mode_rate` for why it is not the target.
GAIN_REFERENCE_DELAY = 0.05
#: ẑ sampling cadence (seconds).
SAMPLE_INTERVAL = 0.01
#: window over which S and R are averaged for one ẑ sample (seconds).
RATE_SMOOTHING = 0.06

#: The probe's pulse, shared by :class:`NimbusCca`,
#: :class:`repro.core.probe.ElasticityProbe` and
#: :class:`repro.fluid.probe.FluidProbe`: frequency (Hz), amplitude
#: as a fraction of μ, and the delay controller's floor as a fraction
#: of μ.  The amplitude is above deployed Nimbus's 0.25: a dedicated
#: measurement flow can afford stronger pulses, and the extra drive is
#: what makes weakly-reactive cross traffic (BBRv1's smoothed pacing)
#: visible above bursty application traffic (calibration table in
#: DESIGN.md).  The floor is far above deployed Nimbus's 0.05, which
#: switches modes when squeezed: it keeps the pulses visible when
#: backlogged cross traffic would otherwise squeeze them out.
PULSE_FREQ = 5.0
PULSE_AMPLITUDE = 0.35
MIN_RATE_FRAC = 0.25


def default_delay_target(pulse_freq: float, pulse_amplitude: float
                         ) -> float:
    """Standing queueing delay (seconds) the delay mode aims for.

    The standing queue must absorb the worst-case drain of a
    down-pulse (amplitude * period / pi seconds of queueing), or the
    bottleneck idles and ẑ picks up the probe's own pulse; the target
    is twice that drain time, capped at 50 ms.
    """
    return min(2.0 * pulse_amplitude / (math.pi * pulse_freq), 0.05)


def fit_to_buffer(buffer_delay: float, delay_target: float,
                  pulse_freq: float, pulse_amplitude: float
                  ) -> tuple[float, float]:
    """``(delay_target, amplitude_frac)``, neither above its
    configured value, fitted into a ``buffer_delay``-second buffer.

    A buffer that cannot hold the standing queue plus a full pulse
    swing makes the probe's own drops pulse-lock ẑ and fake
    elasticity.  Budget: target ≈ 0.4 x buffer, swing ≤ 0.25 x buffer
    each way, leaving ~0.1 x buffer so the up-lobe peak does not graze
    the tail-drop limit (pulse-locked losses read as elasticity).
    """
    target = min(delay_target, max(0.4 * buffer_delay, 0.004))
    max_drain = 0.25 * buffer_delay
    max_amp = max_drain * math.pi * pulse_freq
    return target, min(pulse_amplitude, max(max_amp, 0.02))


def probe_estimator(pulse_freq: float) -> ElasticityEstimator:
    """The probe's elasticity estimator for pulses at ``pulse_freq``.

    Slow pulses need longer FFT windows (several periods) and a
    comparison band that reaches below the pulse frequency.
    """
    return ElasticityEstimator(
        pulse_freq=pulse_freq, sample_interval=SAMPLE_INTERVAL,
        window=max(5.0, 10.0 / pulse_freq),
        band=(min(1.0, pulse_freq / 4.0), 12.0))


def clipped_cross_estimate(mu: float, send_rate: float,
                           recv_rate: float) -> float:
    """One ẑ sample, clipped at 1.5 μ.

    Cross traffic cannot exceed the link: unclipped, transient
    starvation of the probe's ACK stream (R -> 0 in a smoothing
    window) yields unphysical ẑ spikes whose broadband spectral noise
    drowns genuine pulse responses.
    """
    z, cap = cross_traffic_estimate(mu, send_rate, recv_rate), 1.5 * mu
    return cap if cap < z else z  # min(z, cap) without the call


def delay_mode_rate(mu: float, z_smoothed: float, delay_target: float,
                    queue_delay: float, min_rate_frac: float) -> float:
    """The delay-mode base rate (bytes/second): the fair share μ - ẑ
    plus a proportional queue term, floored at ``min_rate_frac`` μ and
    capped at 1.2 μ."""
    # max/min written out as CPython evaluates them (DESIGN.md §7).
    fair_share = mu - z_smoothed
    fair_share = fair_share if fair_share > 0.0 else 0.0
    # Stiffness is normalized by a FIXED reference delay, not by the
    # target: dividing by a small target makes the feedback violent
    # enough to self-oscillate at a few Hz -- squarely inside the
    # elasticity band -- which reads as phantom elastic cross traffic
    # on idle paths.
    queue_term = (QUEUE_GAIN * mu * (delay_target - queue_delay)
                  / GAIN_REFERENCE_DELAY)
    rate, floor, cap = fair_share + queue_term, min_rate_frac * mu, 1.2 * mu
    rate = floor if floor > rate else rate
    return cap if cap < rate else rate


class NimbusCca(CongestionControl):
    """Nimbus congestion control / elasticity probe, in delay mode.

    Args:
        capacity_hint: bottleneck capacity μ in bytes/second; None
            estimates μ as a windowed max of delivery-rate samples
            (the filter runs only then: with a hint it is never fed).
            (A wrong μ adds (k-1)·S to ẑ for a hint k times the true
            capacity, so the probe's own pulse reads as elasticity;
            see :mod:`repro.core.elasticity`.)
        pulse_freq: pulse frequency f_p (Hz).
        pulse_amplitude: pulse amplitude as a fraction of μ.

    The delay-mode rate is floored at :data:`MIN_RATE_FRAC` μ.
    """

    name = "nimbus"

    #: pacing rate before any feedback (bytes/second).
    INITIAL_RATE = 1_250_000.0

    #: wire bytes per payload byte (see :meth:`bind_flow`)
    _wire_factor = (DEFAULT_MSS + HEADER_BYTES) / DEFAULT_MSS

    def __init__(self, capacity_hint: float | None = None,
                 pulse_freq: float = PULSE_FREQ,
                 pulse_amplitude: float = PULSE_AMPLITUDE):
        self.capacity_hint = capacity_hint
        # Built first: it rejects a non-positive frequency or an
        # amplitude outside (0, 1) before the target divides by them.
        self.pulses = PulseGenerator(pulse_freq, pulse_amplitude)
        self.delay_target = default_delay_target(pulse_freq,
                                                 pulse_amplitude)
        self.estimator = probe_estimator(pulse_freq)

        self._mu_filter = WindowedExtremum(window=10.0, mode="max")
        self._smooth_bins = max(1, int(round(RATE_SMOOTHING
                                             / SAMPLE_INTERVAL)))
        self._bin_idx = 0
        self._send_in_bin = 0
        self._recv_in_bin = 0
        # Full bin histories: ẑ compares R(t) against S(t - srtt),
        # because this instant's deliveries reflect what was sent one
        # RTT ago; contemporaneous S would alias the probe's own pulse
        # into ẑ whenever the RTT is comparable to the pulse period.
        self._send_bins: list[int] = []
        self._recv_bins: list[int] = []

        self._base_rate = self.INITIAL_RATE
        self._pacing_rate = self.INITIAL_RATE
        self._cwnd = 20.0
        self._srtt: float | None = None
        self._min_rtt: float | None = None
        self._now = 0.0
        self._z_smoothed = 0.0

        # Adaptive pulse envelope (:func:`fit_to_buffer`): the probe
        # learns the buffer depth from the peak queueing delay
        # observed around losses (overflow happens exactly when the
        # queue equals the buffer).  The estimate only ratchets
        # upward, so there is no oscillation; deeper-queue losses
        # later (a competitor filling a big buffer) relax the
        # restriction back toward the configured values.
        self._buffer_est: float | None = None
        self._rtt_peak = WindowedExtremum(window=1.0, mode="max")
        self._base_delay_target = self.delay_target
        self._base_amplitude = pulse_amplitude

    def bind_flow(self, flow_id: str, mss: int) -> None:
        super().bind_flow(flow_id, mss)
        # The transport reports payload bytes; μ is a wire rate.  The
        # ~3.6% difference looks like phantom cross traffic in ẑ and,
        # worse, biases the delay controller's fair-share term low
        # enough to keep small-target paths just below saturation.
        self._wire_factor = (mss + HEADER_BYTES) / mss

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
        if (self.capacity_hint is None
                and sample.delivery_rate is not None
                and not sample.delivery_rate_app_limited):
            self._mu_filter.update(sample.now, sample.delivery_rate)
        self._update_control(sample.now)

    def on_loss(self, now: float, lost_bytes: int) -> None:
        # Delay mode has no explicit rate cut on loss: losses inflate
        # the measured queueing delay, and the delay controller (which
        # recomputes the rate from scratch on every ACK) backs off
        # through that signal.  Losses do, however, teach us the
        # buffer depth: overflow happens when the queue equals the
        # buffer, so the recent peak queueing delay at loss time is a
        # buffer-depth sample.
        peak_rtt = self._rtt_peak.value
        if peak_rtt is None or self._min_rtt is None:
            return
        queue_at_loss = max(0.0, peak_rtt - self._min_rtt)
        if queue_at_loss <= 1e-4:
            return
        if self._buffer_est is None or queue_at_loss > self._buffer_est:
            self._buffer_est = queue_at_loss
            self._retarget()

    def _retarget(self) -> None:
        """:func:`fit_to_buffer` into the learned buffer."""
        if self._buffer_est is None:
            return
        self.delay_target, self.pulses.amplitude_frac = fit_to_buffer(
            self._buffer_est, self._base_delay_target,
            self.pulses.frequency, self._base_amplitude)

    def on_rto(self, now: float) -> None:
        self._base_rate = max(self._base_rate * 0.5,
                              MIN_RATE_FRAC * self.mu)

    # -- rate sampling ----------------------------------------------------------

    def _advance_bins(self, now: float) -> None:
        """Close any ẑ sample bins that ended before ``now``."""
        self._now = now
        target_bin = int(now / SAMPLE_INTERVAL)
        while self._bin_idx < target_bin:
            self._close_bin()

    def _mean_rate(self, bins: list[int], end: int) -> float:
        """Mean rate over the ``_smooth_bins`` bins ending at ``end``."""
        lo = max(0, end - self._smooth_bins)
        if end <= lo:
            return 0.0
        return sum(bins[lo:end]) / ((end - lo) * SAMPLE_INTERVAL)

    def _close_bin(self) -> None:
        self._send_bins.append(self._send_in_bin)
        self._recv_bins.append(self._recv_in_bin)
        self._send_in_bin = 0
        self._recv_in_bin = 0
        self._bin_idx += 1
        bin_end = self._bin_idx * SAMPLE_INTERVAL

        srtt = self._srtt if self._srtt is not None else 0.1
        lag_bins = int(round(srtt / SAMPLE_INTERVAL))
        n = len(self._send_bins)
        recv_rate = self._mean_rate(self._recv_bins, n) * self._wire_factor
        send_rate = (self._mean_rate(self._send_bins, n - lag_bins)
                     * self._wire_factor)
        z = clipped_cross_estimate(self.mu, send_rate, recv_rate)
        # Light smoothing stabilizes the delay controller; the estimator
        # gets the raw sample to preserve spectral content.
        self._z_smoothed += 0.1 * (z - self._z_smoothed)
        # The significance floor tracks the *delivered* pulse drive: a
        # shrunken pulse elicits proportionally smaller responses, and
        # holding the floor at full scale would mute true detections.
        self.estimator.scale = self.mu * (self.pulses.amplitude_frac
                                          / self._base_amplitude)
        due = self.estimator.add_sample(bin_end, z)
        if _OBS.enabled:
            # Bins close lazily, so bin_end can trail the live clock;
            # emit at the clock (events must be non-decreasing in time)
            # and keep the bin boundary in meta.  Only a traced run
            # transforms each window as it falls due.
            meta = {"bin_end": bin_end}
            if due:
                meta["elasticity"] = self.estimator.readings[-1].elasticity
            self._trace(self._now, EventKind.PULSE, z, meta)

    # -- control law --------------------------------------------------------------

    def _update_control(self, now: float) -> None:
        mu = self.mu
        srtt = self._srtt if self._srtt is not None else 0.1
        queue_delay = 0.0
        if self._srtt is not None and self._min_rtt is not None:
            queue_delay = max(0.0, self._srtt - self._min_rtt)
        self._base_rate = delay_mode_rate(
            mu, self._z_smoothed, self.delay_target, queue_delay,
            MIN_RATE_FRAC)
        rate = self._base_rate + self.pulses.offset(now, mu)
        self._pacing_rate = max(rate, MIN_RATE_FRAC * mu)
        # The window caps rather than clocks transmission.
        self._cwnd = max(4.0, 2.0 * self._pacing_rate * srtt / self.mss)

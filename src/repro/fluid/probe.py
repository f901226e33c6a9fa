"""Fluid Nimbus probe: the paper's elasticity measurement, rate-based.

The control law, pulse shape, ẑ estimator, and spectral pipeline are
the same as :class:`repro.cca.nimbus.NimbusCca` -- this class re-uses
:class:`repro.core.elasticity.ElasticityEstimator` and
:class:`~repro.core.elasticity.PulseGenerator` directly so the
readings feed the identical FFT and the identical
:class:`repro.core.detector.ContentionDetector`.

The one structural difference is feedback latency.  In the packet
backend the probe sees its delivery rate one RTT after sending, so
Nimbus lags its send-rate window by srtt to phase-align S with R.  In
the fluid model feedback is instantaneous except for the queueing
delay the cohort FIFO imposes, so the send-rate lag here is the
(smoothed) queue delay.  With that alignment, ẑ = μ·S/R - S over a
busy cohort FIFO reads exactly the cross arrival rate at enqueue
time -- no echo of the probe's own pulse (DESIGN.md, "The fluid
backend").
"""

from __future__ import annotations

import math

from ..core.elasticity import (ElasticityEstimator, PulseGenerator,
                               cross_traffic_estimate)
from ..core.probe import ProbeReport
from ..units import DEFAULT_MSS, ordered_sum
from .flows import FluidFlow

#: Mirrors NimbusCca's rate-smoothing window (seconds).
RATE_SMOOTHING = 0.06


class FluidProbe(FluidFlow):
    """Nimbus delay-mode probe as a fluid flow.

    Args:
        mu: bottleneck capacity (bytes/second) -- the capacity hint.
        base_rtt: two-way propagation delay (seconds).
        buffer_delay: bottleneck buffer depth in seconds (buffer bytes
            over the drain rate).  The packet probe learns this from
            its first loss and retargets its standing queue and pulse
            amplitude to fit; the fluid probe knows the topology and
            applies the same retargeting a priori (a documented
            deviation -- it only skips the pre-first-loss transient).
        pulse_freq / pulse_amplitude / warmup / min_rate_frac /
        sample_interval: as in :class:`repro.core.probe.ElasticityProbe`.
    """

    QUEUE_GAIN = 0.5
    GAIN_REFERENCE_DELAY = 0.05

    def __init__(self, mu: float, base_rtt: float, buffer_delay: float,
                 flow_id: str = "probe", pulse_freq: float = 5.0,
                 pulse_amplitude: float = 0.35, warmup: float = 6.0,
                 min_rate_frac: float = 0.25,
                 sample_interval: float = 0.01, mss: int = DEFAULT_MSS):
        super().__init__(flow_id, base_rtt)
        self.mu = mu
        self.warmup = warmup
        self.min_rate_frac = min_rate_frac
        self.sample_interval = sample_interval
        self.pulses = PulseGenerator(pulse_freq, pulse_amplitude)
        base_target = min(2.0 * pulse_amplitude / (math.pi * pulse_freq),
                          0.05)
        # NimbusCca._retarget: fit the standing queue and pulse swing
        # into the buffer so up-pulses do not graze the drop limit.
        self.delay_target = base_target
        if 0.4 * buffer_delay < base_target:
            self.delay_target = max(0.4 * buffer_delay, 0.004)
            max_amp = 0.25 * buffer_delay * math.pi * pulse_freq
            self.pulses.amplitude_frac = min(pulse_amplitude,
                                             max(max_amp, 0.02))
        self._amp_scale = self.pulses.amplitude_frac / pulse_amplitude
        self.estimator = ElasticityEstimator(
            pulse_freq=pulse_freq, sample_interval=sample_interval,
            window=max(5.0, 10.0 / pulse_freq), update_interval=0.5,
            band=(min(1.0, pulse_freq / 4.0), 12.0))
        self.estimator.scale = mu * self._amp_scale
        self._base_rate = min_rate_frac * mu
        self.rate = self._base_rate + self.pulses.offset(0.0, mu)
        self._z_smoothed = 0.0
        self._q_smoothed = 0.0
        self._send_hist: list[float] = []
        self._recv_hist: list[float] = []
        self._next_sample = sample_interval

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
            self._next_sample += self.sample_interval
            n = len(self._send_hist)
            k = max(1, int(round(RATE_SMOOTHING / dt)))
            lag = int(round(self._q_smoothed / dt))
            send = self._window_mean(self._send_hist, n - lag, k)
            recv = self._window_mean(self._recv_hist, n, k)
            z = cross_traffic_estimate(self.mu, send, recv)
            z = min(z, 1.5 * self.mu)
            self._z_smoothed += 0.1 * (z - self._z_smoothed)
            self.estimator.add_sample(now + dt, z)

        # Delay-mode control law (NimbusCca._update_control).
        fair_share = max(0.0, self.mu - self._z_smoothed)
        queue_term = (self.QUEUE_GAIN * self.mu
                      * (self.delay_target - queue_delay)
                      / self.GAIN_REFERENCE_DELAY)
        self._base_rate = min(max(fair_share + queue_term,
                                  self.min_rate_frac * self.mu),
                              1.2 * self.mu)
        self.rate = max(self._base_rate + self.pulses.offset(now + dt,
                                                             self.mu),
                        self.min_rate_frac * self.mu)

    @property
    def readings(self):
        return self.estimator.readings

    def report(self, duration: float) -> ProbeReport:
        """Post-warmup summary of a ``duration``-second run (the fluid
        side of :meth:`repro.core.probe.ElasticityProbe.report`)."""
        lo = self.warmup
        return ProbeReport.summarize(
            [r for r in self.readings if lo <= r.time < duration],
            self.delivered_bytes / max(duration, 1e-9), duration - lo)

"""Fluid Nimbus probe: the paper's elasticity measurement, rate-based.

The delay-mode law is :mod:`repro.cca.nimbus`'s, called rather than
copied, so the readings feed the identical FFT and the identical
:class:`repro.core.detector.ContentionDetector`.  Three things are the
backend's own (DESIGN.md, "The fluid backend"):

* the lag: feedback is instantaneous except for the queueing delay the
  cohort FIFO imposes, so S lags by the smoothed queue delay, not by
  srtt; over a busy cohort FIFO, ẑ = μ·S/R - S then reads exactly the
  cross arrival rate at enqueue time -- no echo of the probe's pulse;
* μ is the capacity hint, always;
* the buffer depth is known from the topology and fitted before the
  first tick, where the packet probe learns it from its losses.
"""

from __future__ import annotations

from ..cca.nimbus import (MIN_RATE_FRAC, PULSE_AMPLITUDE, PULSE_FREQ,
                          RATE_SMOOTHING, SAMPLE_INTERVAL,
                          clipped_cross_estimate, default_delay_target,
                          delay_mode_rate, fit_to_buffer, probe_estimator)
from ..core.elasticity import PulseGenerator
from ..core.probe import WARMUP, ProbeReport
from .flows import FluidFlow


class FluidProbe(FluidFlow):
    """Nimbus delay-mode probe as a fluid flow.

    Args:
        mu: bottleneck capacity (bytes/second) -- the capacity hint.
        base_rtt: two-way propagation delay (seconds).
        buffer_delay: bottleneck buffer depth in seconds (buffer bytes
            over the drain rate).  The packet probe learns this from
            its first loss and fits its standing queue and pulse
            amplitude into it; the fluid probe knows the topology and
            applies the same fit a priori (a documented deviation --
            it only skips the pre-first-loss transient).
        pulse_freq / pulse_amplitude: as in
            :class:`repro.core.probe.ElasticityProbe`.
    """

    def __init__(self, mu: float, base_rtt: float, buffer_delay: float,
                 pulse_freq: float = PULSE_FREQ,
                 pulse_amplitude: float = PULSE_AMPLITUDE):
        super().__init__("probe", base_rtt)
        self.mu = mu
        self.pulses = PulseGenerator(pulse_freq, pulse_amplitude)
        self.delay_target, self.pulses.amplitude_frac = fit_to_buffer(
            buffer_delay, default_delay_target(pulse_freq, pulse_amplitude),
            pulse_freq, pulse_amplitude)
        self.estimator = probe_estimator(pulse_freq)
        self.estimator.scale = mu * (self.pulses.amplitude_frac
                                     / pulse_amplitude)
        self._base_rate = MIN_RATE_FRAC * mu
        self.rate = self._base_rate + self.pulses.offset(0.0, mu)
        self._z_smoothed = 0.0
        self._q_smoothed = 0.0
        self._send_hist: list[float] = []
        self._recv_hist: list[float] = []
        self._next_sample = SAMPLE_INTERVAL

    def _window_mean(self, hist: list[float], end: int, k: int) -> float:
        lo = end - k if end > k else 0
        if end <= lo:
            return 0.0
        total = 0.0
        for value in hist[lo:end]:
            total += value
        return total / (end - lo)

    def advance(self, now, dt, delivered_rate, queue_delay, loss,
                ecn_mark) -> None:
        send_hist, mu, t = self._send_hist, self.mu, now + dt
        send_hist.append(self.rate)
        self._recv_hist.append(delivered_rate)
        self._q_smoothed += 0.1 * (queue_delay - self._q_smoothed)

        if t >= self._next_sample:
            self._next_sample += SAMPLE_INTERVAL
            n = len(send_hist)
            # round() of a float is already an int, and never negative here.
            k = round(RATE_SMOOTHING / dt) or 1
            lag = round(self._q_smoothed / dt)
            z = clipped_cross_estimate(
                mu, self._window_mean(send_hist, n - lag, k),
                self._window_mean(self._recv_hist, n, k))
            self._z_smoothed += 0.1 * (z - self._z_smoothed)
            self.estimator.add_sample(t, z)

        self._base_rate = delay_mode_rate(
            mu, self._z_smoothed, self.delay_target, queue_delay,
            MIN_RATE_FRAC)
        rate = self._base_rate + self.pulses.offset(t, mu)
        floor = MIN_RATE_FRAC * mu
        self.rate = floor if floor > rate else rate

    @property
    def readings(self):
        return self.estimator.readings

    def report(self, duration: float) -> ProbeReport:
        """Post-warmup summary of a ``duration``-second run (the fluid
        side of :meth:`repro.core.probe.ElasticityProbe.report`)."""
        return ProbeReport.summarize(
            [r for r in self.readings if WARMUP <= r.time < duration],
            self.delivered_bytes / max(duration, 1e-9), duration - WARMUP)

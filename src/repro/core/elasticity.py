"""Elasticity estimation -- the paper's proposed measurement primitive.

Nimbus (Goyal et al., SIGCOMM 2022 [54]) detects whether cross traffic
is *elastic* -- i.e. adjusts its rate in response to short-term changes
in available bandwidth -- by (1) modulating its own sending rate with
sinusoidal pulses at a known frequency ``f_p``, (2) estimating the
cross-traffic rate ``z(t)`` from its own send and receive rates, and
(3) measuring how much energy ``z(t)`` carries at ``f_p``: elastic
cross traffic reacts to the pulses (its ACK clock slows when the probe
pulses up), imprinting the pulse frequency onto ``z``; inelastic cross
traffic does not.

This module implements the signal-processing half, independent of any
transport so it can also run offline over recorded rate series:

* :func:`cross_traffic_estimate` -- ẑ = max(0, μ·S/R - S).
* :class:`PulseGenerator` -- the rate modulation waveform.
* :class:`ElasticityEstimator` -- streaming FFT-based estimator.
* :func:`elasticity_series` -- offline sliding-window analysis.

The elasticity metric here is a peak-to-background ratio: the amplitude
of ``z``'s spectrum at the pulse frequency divided by the median
amplitude in the surrounding band.  It is invariant to rescaling ẑ, but
an error in the capacity estimate μ does not rescale ẑ.  Behind a FIFO
with inelastic cross traffic z, R = μS/(S+z); with μ̂ = kμ this gives
ẑ = kz + (k-1)S, so for k != 1 the probe reads its own pulse back, at
amplitude |k-1| times the pulse's, as if it were elastic cross traffic
(``tests/test_elasticity.py`` measures it).  The metric is only as
good as μ̂.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# np.fft is a lazy submodule: imported here, it is loaded before any
# pool fork instead of once in every child (DESIGN.md §10).
import numpy.fft

from ..analysis.stats import median
from ..errors import AnalysisError, ConfigError


def cross_traffic_estimate(mu: float, send_rate: float,
                           recv_rate: float) -> float:
    """Nimbus cross-traffic rate estimate ẑ = max(0, μ·S/R - S).

    Rationale: with a busy FIFO bottleneck of capacity μ, a flow
    sending at S receives service R ≈ μ · S / (S + z), so
    z ≈ μ·S/R - S.

    Args:
        mu: bottleneck capacity estimate (bytes/second).
        send_rate: the probe's send rate S (bytes/second).
        recv_rate: the probe's delivery rate R (bytes/second).
    """
    if recv_rate <= 0 or send_rate <= 0:
        return 0.0
    z = mu * send_rate / recv_rate - send_rate
    return z if z > 0.0 else 0.0  # max(0.0, z), as CPython evaluates it


class PulseGenerator:
    """Sinusoidal rate pulses at frequency ``frequency``.

    The offset added to the base rate at time ``t`` is
    ``amplitude_frac * mu * sin(2*pi*frequency*t)`` -- zero-mean, so
    pulsing does not change the probe's average rate.

    (Nimbus uses an asymmetric half-sine pulse to bound queue build-up;
    a symmetric sine has the same spectral signature at ``f_p`` and
    simplifies mean-rate reasoning.  DESIGN.md lists this as a
    documented deviation.)
    """

    def __init__(self, frequency: float = 5.0, amplitude_frac: float = 0.25):
        if frequency <= 0:
            raise ConfigError(f"frequency must be positive: {frequency}")
        if not 0 < amplitude_frac < 1:
            raise ConfigError(
                f"amplitude_frac must be in (0, 1): {amplitude_frac}")
        self.frequency = frequency
        self.amplitude_frac = amplitude_frac
        # 2.0 * math.pi * frequency * t is (2π·f)·t: the same float.
        self._omega = 2.0 * math.pi * frequency

    def offset(self, t: float, mu: float) -> float:
        """Rate offset (bytes/second) to add at time ``t``."""
        return self.amplitude_frac * mu * math.sin(self._omega * t)


@dataclass(frozen=True)
class ElasticityReading:
    """One elasticity measurement.

    Attributes:
        time: when the window ended.
        elasticity: peak-to-background ratio at the pulse frequency
            (dimensionless; ~1 for inelastic, >> 1 for elastic).
        peak_amplitude: raw |Z(f_p)| (bytes/second).
        background_amplitude: median |Z(f)| over the comparison band.
        mean_cross_rate: mean of ẑ over the window (bytes/second).
    """

    time: float
    elasticity: float
    peak_amplitude: float
    background_amplitude: float
    mean_cross_rate: float


def _comparison_bins(freqs: np.ndarray, pulse_freq: float,
                     band: tuple[float, float]) -> tuple[int, np.ndarray]:
    """``(pulse bin, comparison mask)`` on the rFFT grid ``freqs``: the
    bins in ``band`` outside the pulse bin and its Hann spread."""
    pulse_idx = int(np.argmin(np.abs(freqs - pulse_freq)))
    in_band = (freqs >= band[0]) & (freqs <= band[1])
    exclude = np.zeros_like(in_band)
    exclude[max(0, pulse_idx - 2):pulse_idx + 3] = True
    return pulse_idx, in_band & ~exclude


def _spectrum_elasticity_batch(windows: np.ndarray, sample_interval: float,
                               pulse_freq: float,
                               band: tuple[float, float],
                               significance_floor: float | np.ndarray = 0.0
                               ) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
    """Vectorized elasticity over a batch of ẑ windows.

    ``windows`` has shape ``(m, n)`` -- one FFT window per row; the
    whole batch is transformed with a single ``rfft`` call, which is
    what makes offline analysis of long traces cheap.  Returns
    ``(elasticity, peak, background)`` arrays of length ``m``.

    ``significance_floor`` is a rate amplitude (bytes/second), one
    value for every row or an array of one per row: a cross-traffic
    oscillation smaller than this is insignificant, so it is added to
    the background before taking the ratio.  Without it, an
    all-but-empty path (ẑ ~ 0 everywhere) can produce arbitrarily large
    ratios out of numerical residue.
    """
    n = windows.shape[1]
    windowed = windows - windows.mean(axis=1, keepdims=True)
    # In place: a batch is every window a probe fell due on, so each
    # temporary is (readings, n) doubles and one fewer lowers peak RSS.
    windowed *= np.hanning(n)
    spectrum = np.abs(np.fft.rfft(windowed, axis=1))
    pulse_idx, comparison_bins = _comparison_bins(
        np.fft.rfftfreq(n, d=sample_interval), pulse_freq, band)

    # Peak: the pulse-frequency bin and its immediate neighbours (the
    # Hann window spreads a tone over ~2 bins).
    lo = max(0, pulse_idx - 1)
    hi = min(spectrum.shape[1], pulse_idx + 2)
    peak = spectrum[:, lo:hi].max(axis=1)

    # Background: median amplitude in the band, excluding the pulse
    # bins (and their spread).
    comparison = spectrum[:, comparison_bins]
    if comparison.shape[1] == 0:
        raise AnalysisError(
            "comparison band is empty; widen band or window")
    background = median(comparison)
    # A Hann-windowed sine of amplitude `a` over n samples produces an
    # rfft peak of ~ a*n/4; convert the rate floor to spectrum units.
    floor = significance_floor * n / 4.0
    denom = np.maximum(background + floor, 1e-12)
    return peak / denom, peak, background


def _window_readings(windows: np.ndarray, times, sample_interval: float,
                     pulse_freq: float, band: tuple[float, float],
                     significance_floor: float | np.ndarray = 0.0
                     ) -> list[ElasticityReading]:
    """One :class:`ElasticityReading` per row of ``windows``, the row's
    window having ended at the matching entry of ``times``."""
    elasticity, peak, background = _spectrum_elasticity_batch(
        windows, sample_interval, pulse_freq, band, significance_floor)
    means = windows.mean(axis=1)
    return [ElasticityReading(
        time=float(t), elasticity=float(e), peak_amplitude=float(p),
        background_amplitude=float(b), mean_cross_rate=float(m))
        for t, e, p, b, m in zip(times, elasticity, peak, background,
                                 means)]


class ElasticityEstimator:
    """Streaming elasticity estimator over a sliding window of ẑ samples.

    Feed ẑ samples at a fixed cadence with :meth:`add_sample`; every
    :attr:`update_interval` seconds (once the window is full) a reading
    falls due.  Due readings are transformed together, in one batched
    ``rfft``, the next time :attr:`readings` is read; a reading is the
    same to the bit whenever it is read.

    Args:
        pulse_freq: the probe's pulse frequency (Hz).
        sample_interval: spacing of ẑ samples (seconds).
        window: FFT window length (seconds); 5 s at f_p = 5 Hz gives
            25 pulse periods per window.
        band: comparison band (Hz) for the background estimate.
    """

    #: How often to emit a reading (seconds).
    update_interval = 0.5
    #: Oscillations below this fraction of :attr:`scale` are
    #: insignificant (see :func:`_spectrum_elasticity_batch`); ignored
    #: while ``scale`` is 0.  The floor is taken from ``scale`` as it is
    #: when a reading falls due.
    significance_frac = 0.01

    def __init__(self, pulse_freq: float = 5.0,
                 sample_interval: float = 0.01, window: float = 5.0,
                 band: tuple[float, float] = (1.0, 12.0)):
        if window < 4.0 / pulse_freq:
            raise ConfigError("window must cover several pulse periods")
        if sample_interval <= 0 or sample_interval > 1.0 / (2 * pulse_freq):
            raise ConfigError(
                "sample_interval must satisfy Nyquist for the pulse")
        self.window_samples = int(round(window / sample_interval))
        _, comparison_bins = _comparison_bins(
            np.fft.rfftfreq(self.window_samples, d=sample_interval),
            pulse_freq, band)
        if not comparison_bins.any():
            raise ConfigError(
                f"comparison band {band} holds no frequency bin besides "
                "the pulse's; widen band or window")
        self.pulse_freq = pulse_freq
        self.sample_interval = sample_interval
        self.band = band
        #: rate scale (bytes/second) for the significance floor; the
        #: owner (e.g. NimbusCca) keeps this at its capacity estimate.
        self.scale = 0.0
        self._samples: list[float] = []
        self._last_update = float("-inf")
        # (time, end index into _samples, significance floor) of each
        # reading due since readings were last read.
        self._due: list[tuple[float, int, float]] = []
        self._readings: list[ElasticityReading] = []

    def add_sample(self, now: float, z: float) -> bool:
        """Add one ẑ sample; True when a reading falls due on it."""
        samples = self._samples
        samples.append(z)
        if (len(samples) < self.window_samples
                or now - self._last_update < self.update_interval):
            return False
        self._last_update = now
        self._due.append((now, len(samples),
                          self.significance_frac * self.scale))
        return True

    @property
    def readings(self) -> list[ElasticityReading]:
        """Every reading so far, oldest first."""
        if self._due:
            n = self.window_samples
            times, ends, floors = zip(*self._due)
            windows = np.lib.stride_tricks.sliding_window_view(
                np.array(self._samples, dtype=float), n)[np.array(ends) - n]
            self._readings += _window_readings(
                windows, times, self.sample_interval, self.pulse_freq,
                self.band, np.array(floors))
            self._due.clear()
            # No later window reaches further back than the last n.
            del self._samples[:-n]
        return self._readings


def elasticity_series(times, z_values, pulse_freq: float = 5.0,
                      window: float = 5.0, step: float = 0.5,
                      band: tuple[float, float] = (1.0, 12.0)
                      ) -> list[ElasticityReading]:
    """Offline sliding-window elasticity over a recorded ẑ series.

    ``times`` must be evenly spaced; the sample interval is inferred.
    """
    t = np.asarray(times, dtype=float)
    z = np.asarray(z_values, dtype=float)
    if len(t) != len(z):
        raise AnalysisError("times and z_values must have equal length")
    if len(t) < 3:
        raise AnalysisError("need at least three samples")
    intervals = np.diff(t)
    dt = float(median(intervals))
    if np.any(np.abs(intervals - dt) > dt * 0.01):
        raise AnalysisError("times must be evenly spaced")

    win = int(round(window / dt))
    hop = max(1, int(round(step / dt)))
    ends = np.arange(win, len(z) + 1, hop)
    if len(ends) == 0:
        return []
    # One strided view + one batched FFT over every window at once,
    # instead of a Python loop transforming windows one by one.
    windows = np.lib.stride_tricks.sliding_window_view(z, win)[ends - win]
    return _window_readings(windows, t[ends - 1], dt, pulse_freq, band)

"""Unit tests for the elasticity estimator and pulse generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.elasticity import (ElasticityEstimator, PulseGenerator,
                                   _spectrum_elasticity_batch,
                                   cross_traffic_estimate,
                                   elasticity_series)
from repro.errors import AnalysisError, ConfigError


class TestCrossTrafficEstimate:
    def test_alone_on_busy_link_is_zero(self):
        # R == S and mu == S: z = mu*S/R - S = 0 when we have it all.
        assert cross_traffic_estimate(10e6, 10e6, 10e6) == 0.0

    def test_half_share_implies_equal_cross(self):
        # We send 5, receive 5, on a 10 link: z = 10*1 - 5 = 5.
        assert cross_traffic_estimate(10e6, 5e6, 5e6) == pytest.approx(5e6)

    def test_proportional_service(self):
        # Send 2, receive 2 on a busy 10 link: z = 8.
        assert cross_traffic_estimate(10e6, 2e6, 2e6) == pytest.approx(8e6)

    def test_never_negative(self):
        # Receiving more than our share estimate implies z < 0: clamp.
        assert cross_traffic_estimate(10e6, 5e6, 9e6) == pytest.approx(
            max(0.0, 10e6 * 5 / 9 - 5e6))

    def test_zero_rates_give_zero(self):
        assert cross_traffic_estimate(10e6, 0.0, 5e6) == 0.0
        assert cross_traffic_estimate(10e6, 5e6, 0.0) == 0.0

    @given(st.floats(min_value=1e5, max_value=1e9),
           st.floats(min_value=1e3, max_value=1e9),
           st.floats(min_value=1e3, max_value=1e9))
    def test_property_non_negative_finite(self, mu, s, r):
        z = cross_traffic_estimate(mu, s, r)
        assert z >= 0.0
        assert math.isfinite(z)


class TestPulseGenerator:
    def test_zero_mean_over_period(self):
        gen = PulseGenerator(frequency=5.0, amplitude_frac=0.25)
        ts = np.linspace(0, 0.2, 1000, endpoint=False)
        offsets = [gen.offset(t, 1e6) for t in ts]
        assert abs(np.mean(offsets)) < 1e3

    def test_peak_amplitude(self):
        gen = PulseGenerator(frequency=5.0, amplitude_frac=0.25)
        peak = max(abs(gen.offset(t, 1e6))
                   for t in np.linspace(0, 0.2, 1000))
        assert peak == pytest.approx(0.25e6, rel=0.01)

    def test_periodicity(self):
        gen = PulseGenerator(frequency=4.0)
        assert gen.offset(0.1, 1e6) == pytest.approx(
            gen.offset(0.35, 1e6))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            PulseGenerator(frequency=0)
        with pytest.raises(ConfigError):
            PulseGenerator(amplitude_frac=1.5)


def synthetic_z(duration=10.0, dt=0.01, base=2e6, tone_freq=None,
                tone_amp=0.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(0, duration, dt)
    z = np.full_like(t, base)
    if tone_freq is not None:
        z = z + tone_amp * np.sin(2 * np.pi * tone_freq * t)
    if noise > 0:
        z = z + rng.normal(0, noise, len(t))
    return t, z


class TestElasticitySeries:
    def test_tone_at_pulse_freq_scores_high(self):
        t, z = synthetic_z(tone_freq=5.0, tone_amp=1e6, noise=5e4)
        readings = elasticity_series(t, z, pulse_freq=5.0)
        assert readings
        assert np.mean([r.elasticity for r in readings]) > 5.0

    def test_flat_signal_scores_low(self):
        t, z = synthetic_z(noise=5e4)
        readings = elasticity_series(t, z, pulse_freq=5.0)
        assert np.mean([r.elasticity for r in readings]) < 3.0

    def test_tone_at_other_freq_scores_low(self):
        t, z = synthetic_z(tone_freq=2.0, tone_amp=1e6, noise=5e4)
        readings = elasticity_series(t, z, pulse_freq=5.0)
        assert np.mean([r.elasticity for r in readings]) < 3.0

    def test_elasticity_scale_invariant(self):
        t, z = synthetic_z(tone_freq=5.0, tone_amp=1e6, noise=5e4)
        a = elasticity_series(t, z, pulse_freq=5.0)
        b = elasticity_series(t, z * 7.0, pulse_freq=5.0)
        assert a[0].elasticity == pytest.approx(b[0].elasticity, rel=1e-6)

    def test_misscaled_mu_reads_the_probes_own_pulse(self):
        # A busy FIFO, inelastic noisy cross traffic z, and a probe
        # pulsing S: R = mu*S/(S+z).  Told mu_hat = k*mu, the estimator
        # reads z_hat = k*z + (k-1)*S -- the probe's own pulse.
        mu = 12.5e6
        t = np.arange(0.0, 10.0, 0.01)
        pulse = PulseGenerator(frequency=5.0, amplitude_frac=0.25)
        send = 0.5 * mu + np.array([pulse.offset(x, mu) for x in t])
        cross = 0.5 * mu + np.random.default_rng(0).normal(
            0.0, 0.02 * mu, len(t))
        recv = mu * send / (send + cross)
        median = {}
        for k in (0.8, 1.0, 1.25, 2.0):
            z_hat = [cross_traffic_estimate(k * mu, s, r)
                     for s, r in zip(send, recv)]
            assert np.allclose(z_hat, k * cross + (k - 1.0) * send)
            median[k] = np.median([r.elasticity for r in elasticity_series(
                t, z_hat, pulse_freq=5.0)])
        assert median[1.0] < 3.0
        # Peak over background goes as |k-1|/k: 0.25, 0.2 and 0.5.
        assert 20 * median[1.0] < median[1.25] < median[0.8] < median[2.0]

    def test_mean_cross_rate_reported(self):
        t, z = synthetic_z(base=3e6)
        readings = elasticity_series(t, z, pulse_freq=5.0)
        assert readings[0].mean_cross_rate == pytest.approx(3e6)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AnalysisError):
            elasticity_series([0, 1], [1.0], pulse_freq=5.0)

    def test_uneven_spacing_rejected(self):
        with pytest.raises(AnalysisError):
            elasticity_series([0.0, 0.01, 0.5], [1.0, 1.0, 1.0])


class TestStreamingEstimator:
    def test_emits_after_window_fills(self):
        # add_sample says which samples a reading falls due on; the
        # readings, transformed when read, carry exactly those times.
        est = ElasticityEstimator(pulse_freq=5.0, sample_interval=0.01,
                                  window=2.0)
        due = []
        for i in range(400):
            t = i * 0.01
            if est.add_sample(t, 1e6 + 5e5 * np.sin(2 * np.pi * 5.0 * t)):
                due.append(t)
        assert due
        assert due[0] >= 2.0 - 0.02
        assert [r.time for r in est.readings] == due
        assert est.readings[-1].elasticity > 5.0

    def test_update_interval_spacing(self):
        est = ElasticityEstimator(pulse_freq=5.0, sample_interval=0.01,
                                  window=2.0)
        for i in range(1000):
            est.add_sample(i * 0.01, 1e6)
        times = [r.time for r in est.readings]
        assert est.update_interval == 0.5
        assert all(b - a >= 0.5 - 1e-6 for a, b in zip(times, times[1:]))

    def test_significance_floor_suppresses_tiny_signals(self):
        kwargs = dict(pulse_freq=5.0, sample_interval=0.01, window=2.0)
        loud = ElasticityEstimator(**kwargs)
        gated = ElasticityEstimator(**kwargs)
        gated.scale = 50e6  # tone of 1e4 << 2% of scale
        for i in range(400):
            t = i * 0.01
            z = 1e4 * np.sin(2 * np.pi * 5.0 * t)
            loud.add_sample(t, z)
            gated.add_sample(t, z)
        assert gated.readings[-1].elasticity \
            < loud.readings[-1].elasticity
        assert gated.readings[-1].elasticity < 1.0

    def test_window_is_the_last_window_samples_inputs(self):
        est = ElasticityEstimator(window=2.0)
        n = est.window_samples
        _, z = synthetic_z(duration=5.0, tone_freq=5.0, tone_amp=5e5,
                           noise=1e5)
        fed = 0
        for upto in (int(0.4 * n), n, int(2.5 * n)):
            for i in range(fed, upto):
                est.add_sample(i * 0.01, z[i])
            fed = upto
            window = np.array(est._samples[-n:])
            assert np.array_equal(window, z[max(0, upto - n):upto])

    def test_readings_are_the_spectrum_of_each_window_slice(self):
        # Deferred equals streamed: each reading is its own window's
        # one-row transform, with the floor of the scale when it fell
        # due, whether it was read mid-stream or at the end.
        est = ElasticityEstimator(window=2.0)
        n = est.window_samples
        t, z = synthetic_z(duration=6.0, tone_freq=5.0, tone_amp=5e5,
                           noise=1e5)
        expected, floors, last, midway = [], set(), float("-inf"), None
        for i in range(len(z)):
            est.scale = 2e6 * (i % 7)
            est.add_sample(t[i], z[i])
            if i + 1 >= n and t[i] - last >= 0.5:
                last = t[i]
                window = z[i + 1 - n:i + 1]
                floors.add(est.significance_frac * est.scale)
                row = _spectrum_elasticity_batch(
                    window[None, :], 0.01, 5.0, (1.0, 12.0),
                    est.significance_frac * est.scale)
                expected.append((t[i], *(float(x[0]) for x in row),
                                 float(window.mean())))
            if i == len(z) // 2:
                midway = len(est.readings)
                assert len(est._samples) == n
        assert 0 < midway < len(expected) and len(expected) >= 8
        assert len(floors) > 2
        assert [(r.time, r.elasticity, r.peak_amplitude,
                 r.background_amplitude, r.mean_cross_rate)
                for r in est.readings] == expected

    def test_estimator_equals_offline_series_at_equal_window_ends(self):
        # A binary sample interval keeps every time and every due
        # comparison exact, so both see windows ending every 64 samples.
        dt = 1.0 / 128
        times = [i * dt for i in range(1024)]
        z = 1e6 + 5e5 * np.sin(2 * np.pi * 5.0 * np.array(times)) \
            + np.random.default_rng(3).normal(0, 1e5, len(times))
        est = ElasticityEstimator(sample_interval=dt, window=2.0)
        for now, value in zip(times, z):
            est.add_sample(now, float(value))
        offline = elasticity_series(times, z, window=2.0, step=0.5)
        assert len(offline) == 13
        assert est.readings == offline

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ElasticityEstimator(pulse_freq=5.0, window=0.1)
        with pytest.raises(ConfigError):
            ElasticityEstimator(pulse_freq=5.0, sample_interval=0.5)
        # Caught where they are made, not at the first reading.
        for band in ((12.0, 1.0), (60.0, 80.0)):
            with pytest.raises(ConfigError, match="band"):
                ElasticityEstimator(band=band)


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=2.0, max_value=8.0),
       st.floats(min_value=2e5, max_value=2e6))
def test_property_detects_planted_tone(freq, amp):
    t, z = synthetic_z(duration=8.0, tone_freq=freq, tone_amp=amp,
                       noise=1e4, seed=1)
    readings = elasticity_series(t, z, pulse_freq=freq, window=4.0)
    assert readings[-1].elasticity > 4.0

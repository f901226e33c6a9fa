"""Unit tests for NimbusCca's internal machinery (no network)."""

import math

import pytest

from repro.cca.base import AckSample
from repro.cca.nimbus import NimbusCca
from repro.errors import ConfigError
from repro.fluid.probe import FluidProbe
from repro.obs import EventKind, capture


def ack(now, acked=1448, rtt=0.1, min_rtt=0.1, srtt=0.1,
        inflight=100_000, rate=None, delivered=0):
    return AckSample(now=now, acked_bytes=acked, rtt=rtt, min_rtt=min_rtt,
                     srtt=srtt, inflight_bytes=inflight,
                     delivery_rate=rate, delivery_rate_app_limited=False,
                     delivered_total=delivered, in_recovery=False)


class TestConfig:
    def test_delay_target_scales_with_amplitude_and_freq(self):
        a = NimbusCca(pulse_freq=5.0, pulse_amplitude=0.25)
        expected = min(2.0 * 0.25 / (math.pi * 5.0), 0.05)
        assert a.delay_target == pytest.approx(expected)

    def test_delay_target_clamped(self):
        slow = NimbusCca(pulse_freq=0.5, pulse_amplitude=0.25)
        assert slow.delay_target == pytest.approx(0.05)

    def test_estimator_window_grows_for_slow_pulses(self):
        fast = NimbusCca(pulse_freq=5.0)
        slow = NimbusCca(pulse_freq=1.0)
        assert slow.estimator.window_samples \
            > fast.estimator.window_samples

    def test_invalid_configs(self):
        # A bad pulse is blamed on the pulse, not on the delay target
        # derived from it.
        for freq in (0.0, -5.0):
            with pytest.raises(ConfigError, match="frequency"):
                NimbusCca(pulse_freq=freq)
        with pytest.raises(ConfigError, match="amplitude"):
            NimbusCca(pulse_amplitude=1.5)


class TestOneLaw:
    """The packet and fluid probes fit their pulse into a buffer with
    one function, so a known buffer gives both the same envelope."""

    @staticmethod
    def packet_fit(buffer_delay, freq, amp):
        cca = NimbusCca(capacity_hint=6e6, pulse_freq=freq,
                        pulse_amplitude=amp)
        cca._buffer_est = buffer_delay
        cca._retarget()
        return cca.delay_target, cca.pulses.amplitude_frac

    @staticmethod
    def fluid_fit(buffer_delay, freq, amp):
        probe = FluidProbe(6e6, 0.1, buffer_delay, pulse_freq=freq,
                           pulse_amplitude=amp)
        return probe.delay_target, probe.pulses.amplitude_frac

    @pytest.mark.parametrize("buffer_delay", [0.005, 0.02, 0.05, 0.125,
                                              0.3])
    @pytest.mark.parametrize("freq,amp", [(5.0, 0.35), (5.0, 0.15),
                                          (2.0, 0.25), (1.0, 0.5)])
    def test_backends_fit_the_same_envelope(self, buffer_delay, freq,
                                            amp):
        assert self.fluid_fit(buffer_delay, freq, amp) \
            == self.packet_fit(buffer_delay, freq, amp)

    def test_capped_target_still_fits_the_pulse(self):
        # The 50 ms cap binds at 1 Hz / 0.5, so the buffer can hold the
        # target yet not the swing: the pulse must shrink to fit.
        target, amp = self.fluid_fit(0.125, 1.0, 0.5)
        assert target == pytest.approx(0.05)
        assert amp == pytest.approx(0.25 * 0.125 * math.pi)


class TestRateBins:
    def test_bins_accumulate_and_close(self):
        cca = NimbusCca(capacity_hint=6e6)
        cca.on_packet_sent(0.001, 1448, False)
        cca.on_packet_sent(0.005, 1448, False)
        assert cca._send_in_bin == 2 * 1448
        cca.on_packet_sent(0.015, 1448, False)  # closes bin 0
        assert len(cca._send_bins) == 1
        assert cca._send_bins[0] == 2 * 1448

    def test_z_samples_feed_estimator(self):
        cca = NimbusCca(capacity_hint=6e6)
        for i in range(200):
            t = i * 0.005
            cca.on_packet_sent(t, 1448, False)
            cca.on_ack(ack(t + 0.001))
        assert len(cca.estimator._samples) > 50

    def test_traced_pulse_meta_is_the_deferred_reading(self, bus_off):
        # A traced run transforms each window as it falls due (for the
        # PULSE event's meta); an untraced one when readings are read.
        # Both give the same readings, to the bit.  ``bus_off`` keeps
        # the untraced run untraced under REPRO_CHECK_INVARIANTS=1.
        def drive(cca):
            # A sawtooth delivery pattern, so ẑ and the readings vary.
            for i in range(1300):
                t = i * 0.005
                cca.on_packet_sent(t, 1448, False)
                cca.on_ack(ack(t + 0.001, acked=1448 * (1 + i % 3)))

        traced, untraced = NimbusCca(capacity_hint=6e6), \
            NimbusCca(capacity_hint=6e6)
        with capture() as trace:
            drive(traced)
        with bus_off():
            drive(untraced)
        assert untraced.estimator._due
        readings = untraced.elasticity_readings
        assert len(readings) >= 3
        assert readings == traced.elasticity_readings
        assert [e.meta["elasticity"] for e in trace.events
                if e.kind == EventKind.PULSE and "elasticity" in e.meta] \
            == [r.elasticity for r in readings]

    def test_z_clipped_at_capacity_multiple(self):
        cca = NimbusCca(capacity_hint=6e6)
        # Send a lot, ack almost nothing: raw ẑ would explode.
        for i in range(300):
            cca.on_packet_sent(i * 0.01, 14_480, False)
        cca.on_ack(ack(3.0, acked=100))
        assert max(cca.estimator._samples) <= 1.5 * 6e6 + 1e-6

    def test_mu_from_hint_or_filter(self):
        hinted = NimbusCca(capacity_hint=5e6)
        assert hinted.mu == 5e6
        learned = NimbusCca(capacity_hint=None)
        # falls back to base rate
        assert learned.mu == NimbusCca.INITIAL_RATE
        learned.on_ack(ack(0.1, rate=4e6))
        assert learned.mu == 4e6


class TestDelayControl:
    def test_rate_floor_enforced(self):
        cca = NimbusCca(capacity_hint=6e6)
        # Report a huge queueing delay: controller wants near zero.
        for i in range(5):
            cca.on_ack(ack(0.1 * i, rtt=0.5, min_rtt=0.1, srtt=0.5))
        assert cca.pacing_rate >= 0.25 * 6e6 * 0.9

    def test_rate_rises_when_queue_below_target(self):
        cca = NimbusCca(capacity_hint=6e6)
        cca._z_smoothed = 0.0
        cca.on_ack(ack(0.1, rtt=0.1, min_rtt=0.1, srtt=0.1))  # no queue
        assert cca._base_rate > 6e6  # pushes to build the target queue

    def test_cwnd_caps_not_clocks(self):
        cca = NimbusCca(capacity_hint=6e6)
        cca.on_ack(ack(0.1))
        # cwnd is ~2x the pacing BDP, so pacing is the binding control.
        assert cca.cwnd * cca.mss > 1.5 * cca.pacing_rate * 0.1

    def test_pulses_modulate_pacing(self):
        cca = NimbusCca(capacity_hint=6e6, pulse_freq=5.0,
                        pulse_amplitude=0.25)
        rates = []
        for i in range(40):
            t = 0.005 * i
            cca.on_ack(ack(t, rtt=0.1 + cca.delay_target,
                           min_rtt=0.1, srtt=0.1 + cca.delay_target))
            rates.append(cca.pacing_rate)
        spread = max(rates) - min(rates)
        assert spread > 0.3 * 6e6  # ~2 x 0.25 amplitude visible

"""Tests for analytic throughput models, including simulator validation."""

import pytest

from repro.analysis.models import (mathis_throughput, padhye_throughput,
                                   reno_steady_state_loss_rate)
from repro.cca import RenoCca
from repro.errors import AnalysisError
from repro.sim import Simulator
from repro.tcp import Connection
from repro.units import mbps, ms

from .helpers import lossy_dumbbell


class TestMathis:
    def test_known_value(self):
        # MSS=1448, RTT=100ms, p=0.01: T = 14480 * 1.2247 / 0.1...
        t = mathis_throughput(1448, 0.1, 0.0001)
        assert t == pytest.approx(1448 / 0.1 * 1.2247 / 0.01, rel=0.01)

    def test_quarter_loss_halves_throughput(self):
        t1 = mathis_throughput(1448, 0.1, 0.001)
        t2 = mathis_throughput(1448, 0.1, 0.004)
        assert t1 / t2 == pytest.approx(2.0)

    def test_scales_inversely_with_rtt(self):
        t1 = mathis_throughput(1448, 0.05, 0.001)
        t2 = mathis_throughput(1448, 0.1, 0.001)
        assert t1 / t2 == pytest.approx(2.0)

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            mathis_throughput(1448, 0.1, 0.0)
        with pytest.raises(AnalysisError):
            mathis_throughput(0, 0.1, 0.01)


class TestPadhye:
    def test_close_to_mathis_at_low_loss(self):
        mathis = mathis_throughput(1448, 0.1, 1e-4)
        padhye = padhye_throughput(1448, 0.1, 1e-4)
        assert padhye == pytest.approx(mathis, rel=0.15)

    def test_below_mathis_at_high_loss(self):
        # Timeouts make PFTK strictly more pessimistic.
        mathis = mathis_throughput(1448, 0.1, 0.05)
        padhye = padhye_throughput(1448, 0.1, 0.05)
        assert padhye < mathis


class TestSawtooth:
    def test_loss_rate_inverse(self):
        p = reno_steady_state_loss_rate(100.0)
        assert p == pytest.approx(1.0 / 3750.0)

    def test_invalid(self):
        with pytest.raises(AnalysisError):
            reno_steady_state_loss_rate(0.0)


class TestSimulatorAgainstMathis:
    @pytest.mark.parametrize("loss_rate", [0.0005, 0.002])
    def test_reno_tracks_mathis_within_2x(self, loss_rate):
        """P4 validation: simulated Reno under random loss lands within
        a factor of ~2 of the Mathis prediction (the model itself is
        only accurate to that order; see Philip et al., IMC '21)."""
        sim = Simulator()
        # High capacity so random loss, not the queue, is binding.
        path = lossy_dumbbell(sim, mbps(200), ms(50), loss_rate, seed=3)
        conn = Connection(sim, path, "f", RenoCca())
        conn.sender.set_infinite_backlog()
        sim.run(until=60.0)
        measured = conn.receiver.received_bytes / 60.0
        predicted = mathis_throughput(1448, 0.05, loss_rate)
        assert predicted / 2.2 < measured < predicted * 2.2

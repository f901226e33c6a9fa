"""Tests for Mahimahi trace parsing and synthesis."""

import pytest

from repro.errors import TraceFormatError
from repro.sim.trace import (OPPORTUNITY_BYTES, cellular_trace,
                             constant_rate_trace, parse_trace)
from repro.units import mbps


class TestParse:
    def test_basic(self):
        assert parse_trace("1\n2\n5\n") == [1.0, 2.0, 5.0]

    def test_comments_and_blanks_skipped(self):
        assert parse_trace("# header\n\n3\n\n7\n") == [3.0, 7.0]

    def test_duplicate_timestamps_allowed(self):
        # Two opportunities in the same millisecond = 2 MTUs that ms.
        assert parse_trace("5\n5\n") == [5.0, 5.0]

    def test_non_integer_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace("1.5\n")

    def test_decreasing_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace("5\n3\n")

    def test_empty_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace("# nothing\n")

    def test_negative_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace("-3\n")


class TestSynthesis:
    def test_constant_rate_opportunity_count(self):
        # rate * 1s / 1514B opportunities.
        trace = constant_rate_trace(12.0)
        expected = mbps(12.0) / OPPORTUNITY_BYTES
        assert len(trace) == pytest.approx(expected, rel=0.01)

    def test_constant_rate_evenly_spaced(self):
        trace = constant_rate_trace(12.112)
        gaps = [b - a for a, b in zip(trace, trace[1:])]
        assert max(gaps) - min(gaps) < 0.01

    def test_cellular_deterministic_and_positive(self):
        a = cellular_trace(20.0, duration_ms=2000, seed=3)
        b = cellular_trace(20.0, duration_ms=2000, seed=3)
        assert a == b
        assert all(t >= 0 for t in a)
        assert a == sorted(a)

    def test_cellular_mean_rate_in_ballpark(self):
        trace = cellular_trace(20.0, duration_ms=20_000, seed=1)
        mean_rate = len(trace) * OPPORTUNITY_BYTES / 20.0  # bytes/s
        assert mbps(20.0) / 6 < mean_rate < mbps(20.0) * 5

    def test_invalid_rates_rejected(self):
        with pytest.raises(TraceFormatError):
            constant_rate_trace(0.0)
        with pytest.raises(TraceFormatError):
            cellular_trace(0.0)

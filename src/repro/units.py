"""Unit conventions and conversion helpers.

Internal conventions used throughout the package:

* time        -- seconds (float)
* data        -- bytes (int where possible)
* rate        -- bytes per second (float)
* cwnd        -- packets (float; fractional windows are meaningful for AIMD)
* float sums  -- strictly left to right (:func:`ordered_sum`)

External interfaces (CLI flags, experiment configs, the paper's prose) speak
in megabits per second and milliseconds; these helpers translate at the
boundary so the core never mixes units.
"""

from __future__ import annotations

BITS_PER_BYTE = 8

KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000

#: Default maximum segment size (payload bytes per packet), matching the
#: common Ethernet MTU minus typical TCP/IP headers.
DEFAULT_MSS = 1448

#: TCP/IP header bytes on the wire per data segment.
HEADER_BYTES = 52

#: Default full packet size on the wire (1500 bytes).
DEFAULT_PACKET_SIZE = DEFAULT_MSS + HEADER_BYTES

#: Size of a bare ACK segment on the wire.
ACK_SIZE = 64


def ordered_sum(values) -> float:
    """Sum of floats, strictly left to right.

    Float sums that feed a result add with this, never with builtin
    ``sum()``: from Python 3.12 that is compensated (Neumaier), so the
    same values would sum to a different last bit -- and a different
    stored fingerprint -- depending on the interpreter
    (``tests/test_builtin_sum.py`` allow-lists the other calls).
    """
    total = 0.0
    for value in values:
        total += value
    return total


def mbps(value: float) -> float:
    """Convert megabits/second to bytes/second."""
    return value * MEGA / BITS_PER_BYTE


def to_mbps(rate_bps: float) -> float:
    """Convert bytes/second to megabits/second."""
    return rate_bps * BITS_PER_BYTE / MEGA


def kbps(value: float) -> float:
    """Convert kilobits/second to bytes/second."""
    return value * KILO / BITS_PER_BYTE


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value / 1_000.0


def to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return seconds * 1_000.0


def to_usec(seconds: float) -> float:
    """Convert seconds to microseconds."""
    return seconds * 1_000_000.0


def bdp_bytes(rate_bps: float, rtt_s: float) -> float:
    """Bandwidth-delay product in bytes."""
    return rate_bps * rtt_s


def bdp_packets(rate_bps: float, rtt_s: float,
                packet_size: int = DEFAULT_PACKET_SIZE) -> float:
    """Bandwidth-delay product in packets of ``packet_size`` bytes."""
    return bdp_bytes(rate_bps, rtt_s) / packet_size

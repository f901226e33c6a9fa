"""Packet-level discrete-event network simulator.

The substrate standing in for Mahimahi + real Internet paths: an event
engine (:mod:`engine`), packets (:mod:`packet`), rate-limited and
trace-driven links (:mod:`link`, :mod:`trace`), hosts (:mod:`node`), and
topology builders (:mod:`network`).
"""

from .engine import Event, Simulator
from .link import Link, TraceLink
from .network import PathHandles, dumbbell, trace_dumbbell
from .node import CountingSink, Host
from .packet import Packet, PacketKind, make_ack
from .rng import RngRegistry

__all__ = [
    "Simulator", "Event", "Packet", "PacketKind", "make_ack",
    "Link", "TraceLink", "Host", "CountingSink",
    "PathHandles", "dumbbell", "trace_dumbbell", "RngRegistry",
]

"""Packet model.

Packets are plain mutable objects with ``__slots__`` -- the simulator
creates millions of them, so attribute storage matters more than
immutability here.  A packet carries enough header state for a TCP-like
transport (sequence/ack numbers, SACK-ish loss hints, ECN) and generic
bookkeeping used by queues and analysis (enqueue/dequeue timestamps).
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from ..units import ACK_SIZE, DEFAULT_PACKET_SIZE


class PacketKind(enum.Enum):
    """What role a packet plays on the wire."""

    DATA = "data"
    ACK = "ack"


_packet_ids = itertools.count(1)


class Packet:
    """One packet on the wire.

    Attributes:
        flow_id: opaque identifier of the owning flow (used by fair
            queueing, per-flow accounting, and receivers for dispatch).
        user_id: identifier of the owning subscriber/user; per-user
            isolation mechanisms (HTB classes, policers) key on this.
        kind: DATA or ACK.
        size: bytes occupied on the wire, headers included.
        seq: for DATA, the byte offset of the first payload byte.
        end_seq: for DATA, one past the last payload byte.
        ack: for ACK, the cumulative acknowledgement (next byte expected).
        ecn_capable / ecn_marked: ECN negotiation and CE mark.
        sent_time: when the transport handed the packet to the network.
        enqueue_time: when the bottleneck queue accepted the packet
            (set by qdiscs; used for queueing-delay analysis).
        ack_of_sent_time: for ACK, echo of the data packet's sent_time
            (an exact RTT timestamp, like TCP timestamps).
    """

    __slots__ = (
        "packet_id", "flow_id", "user_id", "kind", "size",
        "seq", "end_seq", "ack",
        "ecn_capable", "ecn_marked",
        "sent_time", "enqueue_time", "ack_of_sent_time",
        "retransmit", "rwnd", "ecn_echo", "sack_blocks",
    )

    def __init__(self, flow_id: str, kind: PacketKind = PacketKind.DATA,
                 size: int = DEFAULT_PACKET_SIZE, seq: int = 0,
                 end_seq: int = 0, ack: int = 0, user_id: str = "",
                 ecn_capable: bool = False):
        self.packet_id = next(_packet_ids)
        self.flow_id = flow_id
        self.user_id = user_id or flow_id
        self.kind = kind
        self.size = size
        self.seq = seq
        self.end_seq = end_seq
        self.ack = ack
        self.ecn_capable = ecn_capable
        self.ecn_marked = False
        self.sent_time = 0.0
        self.enqueue_time = 0.0
        self.ack_of_sent_time: Optional[float] = None
        self.retransmit = False
        #: for ACKs: advertised receive window in bytes (None = no limit)
        self.rwnd: Optional[int] = None
        #: for ACKs: echo of an ECN congestion-experienced mark
        self.ecn_echo = False
        #: for ACKs: selective-ack blocks, tuple of (start, end) pairs
        self.sack_blocks: tuple[tuple[int, int], ...] = ()

    @property
    def payload(self) -> int:
        """Payload bytes carried (zero for ACKs)."""
        if self.kind is PacketKind.ACK:
            return 0
        return self.end_seq - self.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is PacketKind.DATA:
            detail = f"seq={self.seq}..{self.end_seq}"
        else:
            detail = f"ack={self.ack}"
        return f"<Packet {self.flow_id} {self.kind.value} {detail} {self.size}B>"


def make_ack(flow_id: str, ack: int) -> Packet:
    """Build a bare ACK acknowledging everything before ``ack``."""
    return Packet(flow_id, PacketKind.ACK, ACK_SIZE, 0, 0, ack)

"""Hosts: packet dispatch endpoints at the edge of the network.

A :class:`Host` terminates paths -- it routes incoming packets to the
handler registered for their flow id (a transport endpoint, a sink, a
measurement probe).  A packet no handler claims is dropped silently,
not raised: in a long scenario, late packets from a finished flow are
normal.
"""

from __future__ import annotations

from typing import Callable

from .packet import Packet

Handler = Callable[[Packet], None]


class Host:
    """A network endpoint dispatching packets by flow id."""

    def __init__(self, name: str = "host"):
        self.name = name
        self._handlers: dict[str, Handler] = {}

    def attach(self, flow_id: str, handler: Handler) -> None:
        """Route packets of ``flow_id`` to ``handler``."""
        self._handlers[flow_id] = handler

    def detach(self, flow_id: str) -> None:
        """Stop routing ``flow_id`` (its packets are dropped)."""
        self._handlers.pop(flow_id, None)

    def send(self, packet: Packet) -> None:
        """Receive a packet from the network (PacketSink interface)."""
        handler = self._handlers.get(packet.flow_id)
        if handler is not None:
            handler(packet)


class CountingSink:
    """A terminal sink that just counts traffic (for UDP receivers)."""

    def __init__(self):
        self.packets = 0
        self.bytes = 0
        self.last_arrival: float | None = None

    def __call__(self, packet: Packet) -> None:
        self.packets += 1
        self.bytes += packet.size

    # PacketSink interface so it can terminate a path directly.
    send = __call__

"""Constant-bitrate UDP-style traffic.

A raw packet source that bypasses the transport entirely: fixed-size
datagrams paced at an exact rate, no ACKs, no retransmission, no
reaction to anything -- the perfectly inelastic cross traffic of
Figure 3's final phase.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..sim.engine import Simulator
from ..sim.network import PathHandles
from ..sim.packet import Packet, PacketKind
from .base import TrafficSource


class CbrSource(TrafficSource):
    """Unreliable constant-bitrate sender.

    Args:
        sim: the simulator.
        path: topology; datagrams enter at ``path.entry`` and are
            counted at the destination host.
        rate: sending rate, bytes/second (wire bytes).
        packet_size: datagram size on the wire.
    """

    def __init__(self, sim: Simulator, path: PathHandles, flow_id: str,
                 rate: float, packet_size: int = 1200):
        if rate <= 0:
            raise ConfigError(f"rate must be positive: {rate}")
        if packet_size <= 0:
            raise ConfigError(f"packet_size must be positive: {packet_size}")
        self.sim = sim
        self.path = path
        self.flow_id = flow_id
        self.rate = rate
        self.packet_size = packet_size
        self.user_id = flow_id
        self.sent_packets = 0
        self._received = 0
        self._running = False
        self._seq = 0
        path.dst_host.attach(flow_id, self._on_delivery)

    def start(self) -> None:
        self._running = True
        self._send_next()

    def stop(self) -> None:
        self._running = False

    def _send_next(self) -> None:
        if not self._running:
            return
        packet = Packet(self.flow_id, PacketKind.DATA,
                        size=self.packet_size, seq=self._seq,
                        end_seq=self._seq + self.packet_size,
                        user_id=self.user_id)
        packet.sent_time = self.sim.now
        self._seq += self.packet_size
        self.sent_packets += 1
        self.path.entry.send(packet)
        self.sim.schedule(self.packet_size / self.rate, self._send_next)

    def _on_delivery(self, packet: Packet) -> None:
        self._received += packet.size

    @property
    def delivered_bytes(self) -> int:
        return self._received

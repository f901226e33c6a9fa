"""Builders tests share that the program itself never calls."""

import numpy as np

from repro.errors import ConfigError
from repro.sim import dumbbell
from repro.sim.packet import Packet, PacketKind
from repro.units import HEADER_BYTES


def make_data(flow_id: str, seq: int, payload: int,
              size: int | None = None, user_id: str = "",
              ecn_capable: bool = False) -> Packet:
    """A DATA packet carrying ``payload`` bytes starting at ``seq``."""
    wire = size if size is not None else payload + HEADER_BYTES
    return Packet(flow_id, PacketKind.DATA, wire, seq, seq + payload,
                  0, user_id, ecn_capable)


class LossBox:
    """Independent random loss (Mahimahi ``mm-loss``): a sink that drops
    each packet with probability ``loss_rate``, drawing in packet
    order."""

    name = "loss"

    def __init__(self, sim, loss_rate: float, sink=None, seed: int = 0):
        if not 0 <= loss_rate < 1:
            raise ConfigError(f"loss_rate must be in [0, 1): {loss_rate}")
        self.sim = sim
        self.loss_rate = loss_rate
        self.sink = sink
        self.dropped = 0
        self._rng = np.random.default_rng(seed)

    def send(self, packet: Packet) -> None:
        if self._rng.random() < self.loss_rate:
            self.dropped += 1
            return
        if self.sink is not None:
            self.sink.send(packet)


def lossy_dumbbell(sim, rate_bps: float, rtt: float, loss_rate: float,
                   seed: int = 0, **kwargs):
    """:func:`~repro.sim.network.dumbbell` with seeded random loss on
    the forward path, between the bottleneck's propagation and the
    receiver (``path.extras["loss"]``)."""
    path = dumbbell(sim, rate_bps, rtt, **kwargs)
    box = LossBox(sim, loss_rate, sink=path.dst_host, seed=seed)
    path.bottleneck.sink = box
    path.extras["loss"] = box
    return path


def advertise_window(connection, rwnd_bytes: int) -> None:
    """Make ``connection``'s receiver a receiver-limited peer: every ACK
    it sends advertises ``rwnd_bytes`` beyond what it has received."""
    receiver = connection.receiver
    send = receiver.transmit

    def transmit(ack):
        ack.rwnd = receiver.rcv_nxt + rwnd_bytes
        send(ack)

    receiver.transmit = transmit


def submit_and_wait(client, kind: str, params, timeout: float) -> dict:
    """Submit one job through a :class:`~repro.serve.ServeClient` and
    wait for it; a cached submission returns at once."""
    job = client.submit(kind, params)
    if job.get("disposition") == "cached":
        return job
    return client.wait(job["id"], timeout=timeout)

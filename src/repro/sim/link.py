"""Links: rate-limited transmission, propagation delay, trace-driven rates.

A link owns an egress qdisc and a transmitter loop: packets offered via
:meth:`Link.send` pass through the qdisc; the transmitter serializes one
packet at a time at the link rate and hands it to ``sink`` (the next
element on the path).  Propagation delay is modelled separately by
:class:`DelayBox` so queueing and propagation compose explicitly, as in
Mahimahi's ``delay`` and ``link`` shells.

Taps (observer callbacks) fire on every delivery; measurement code uses
them to compute ground-truth rates without touching the data path.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Protocol

from ..errors import ConfigError
from ..obs.bus import BUS as _OBS, EventKind
from ..qdisc.base import Qdisc
from ..qdisc.fifo import DropTailQueue
from .engine import Simulator
from .packet import Packet


class PacketSink(Protocol):
    """Anything that can accept a packet (link, delay box, host)."""

    def send(self, packet: Packet) -> None: ...


Tap = Callable[[Packet, float], None]


class Link:
    """A fixed-rate serializing link with an egress qdisc.

    Args:
        sim: the owning simulator.
        rate: transmission rate in bytes/second.
        sink: downstream element receiving transmitted packets.
        qdisc: egress queue (default: 100-packet DropTail).
        name: label used in stats and debugging.
    """

    def __init__(self, sim: Simulator, rate: float,
                 sink: Optional[PacketSink] = None,
                 qdisc: Optional[Qdisc] = None, name: str = "link"):
        if rate <= 0:
            raise ConfigError(f"link rate must be positive: {rate}")
        self.sim = sim
        self._rate = float(rate)
        self.sink = sink
        self.qdisc = qdisc if qdisc is not None else DropTailQueue(
            limit_packets=100)
        self.name = name
        self._busy = False
        self._retry_event = None
        self._in_flight: Optional[Packet] = None
        self._taps: list[Tap] = []
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.busy_time = 0.0
        self._per_flow_bytes: dict[str, int] = {}

    # -- configuration ---------------------------------------------------

    @property
    def rate(self) -> float:
        """Current transmission rate (bytes/second)."""
        return self._rate

    def set_rate(self, rate: float) -> None:
        """Change the link rate; takes effect at the next transmission."""
        if rate <= 0:
            raise ConfigError(f"link rate must be positive: {rate}")
        self._rate = float(rate)

    def add_tap(self, tap: Tap) -> None:
        """Register an observer called as ``tap(packet, now)`` on delivery."""
        self._taps.append(tap)

    # -- data path ---------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Offer a packet to the link's egress queue."""
        self.qdisc.enqueue(packet, self.sim.now)
        if not self._busy:
            self._kick()

    def _kick(self) -> None:
        if self._busy:
            return
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None
        now = self.sim.now
        packet = self.qdisc.dequeue(now)
        if packet is None:
            ready = self.qdisc.next_ready_time(now)
            if ready is not None:
                # A token-gated queue told us when to look again; the
                # epsilon floor guards against zero-delay retry spins.
                delay = max(1e-6, ready - now)
                self._retry_event = self.sim.schedule(delay, self._kick)
            return
        self._busy = True
        tx_time = packet.size / self._rate
        self.busy_time += tx_time
        # One packet serializes at a time (guarded by _busy), so a
        # single in-flight slot replaces a per-packet closure and the
        # completion event is never cancelled: the handle-free
        # call_later path applies.
        self._in_flight = packet
        self.sim.call_later(tx_time, self._complete)

    def _complete(self) -> None:
        packet = self._in_flight
        self._in_flight = None
        self._busy = False
        now = self.sim.now
        size = packet.size
        flow = packet.flow_id
        self.delivered_packets += 1
        self.delivered_bytes += size
        per_flow = self._per_flow_bytes
        per_flow[flow] = per_flow.get(flow, 0) + size
        if _OBS.enabled:
            _OBS.emit(now, EventKind.DELIVER, f"link:{self.name}", flow,
                      size)
        for tap in self._taps:
            tap(packet, now)
        if self.sink is not None:
            self.sink.send(packet)
        self._kick()

    # -- stats -------------------------------------------------------------

    def flow_bytes(self, flow_id: str) -> int:
        """Total bytes this link has delivered for ``flow_id``."""
        return self._per_flow_bytes.get(flow_id, 0)

    @property
    def queue_delay(self) -> float:
        """Instantaneous queueing delay at the current rate (seconds)."""
        return self.qdisc.byte_length / self._rate


class DelayBox:
    """Fixed propagation delay with infinite capacity (Mahimahi ``mm-delay``)."""

    def __init__(self, sim: Simulator, delay: float,
                 sink: Optional[PacketSink] = None, name: str = "delay"):
        if delay < 0:
            raise ConfigError(f"delay must be non-negative: {delay}")
        self.sim = sim
        self.delay = delay
        self.sink = sink
        self.name = name
        # Fixed delay means FIFO: arrivals leave in order, so a deque
        # plus a bound-method event replaces a per-packet closure.
        self._queue: deque[Packet] = deque()

    def send(self, packet: Packet) -> None:
        if self.sink is None:
            return
        self._queue.append(packet)
        self.sim.call_later(self.delay, self._deliver_next)

    def _deliver_next(self) -> None:
        packet = self._queue.popleft()
        sink = self.sink
        if sink is not None:
            sink.send(packet)


class LossBox:
    """Independent random loss (Mahimahi ``mm-loss``)."""

    name = "loss"

    def __init__(self, sim: Simulator, loss_rate: float,
                 sink: Optional[PacketSink] = None, seed: int = 0):
        if not 0 <= loss_rate < 1:
            raise ConfigError(f"loss_rate must be in [0, 1): {loss_rate}")
        import numpy as np
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


class TraceLink:
    """Trace-driven variable-rate link (Mahimahi ``mm-link`` semantics).

    The trace is a sequence of delivery-opportunity timestamps
    (milliseconds); at each opportunity the link may transmit exactly
    one packet of up to MTU bytes.  The trace repeats forever with its
    final timestamp as the period.

    Delivery opportunities with an empty queue are wasted -- this is
    what makes trace links faithful models of cellular schedulers.
    """

    MTU = 1514

    def __init__(self, sim: Simulator, opportunities_ms: list[float],
                 sink: Optional[PacketSink] = None,
                 qdisc: Optional[Qdisc] = None, name: str = "tracelink"):
        if not opportunities_ms:
            raise ConfigError("trace must contain at least one opportunity")
        if any(b < a for a, b in zip(opportunities_ms, opportunities_ms[1:])):
            raise ConfigError("trace timestamps must be non-decreasing")
        if opportunities_ms[-1] <= 0:
            raise ConfigError("trace period must be positive")
        self.sim = sim
        self.trace = [t / 1000.0 for t in opportunities_ms]
        self.period = self.trace[-1]
        self.sink = sink
        self.qdisc = qdisc if qdisc is not None else DropTailQueue(
            limit_packets=100)
        self.name = name
        self._taps: list[Tap] = []
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.wasted_opportunities = 0
        self._per_flow_bytes: dict[str, int] = {}
        self._index = 0
        self._epoch = 0.0
        self._schedule_next()

    def add_tap(self, tap: Tap) -> None:
        self._taps.append(tap)

    def send(self, packet: Packet) -> None:
        self.qdisc.enqueue(packet, self.sim.now)

    def _schedule_next(self) -> None:
        when = self._epoch + self.trace[self._index]
        self.sim.schedule_at(max(when, self.sim.now), self._opportunity)

    def _opportunity(self) -> None:
        packet = self.qdisc.dequeue(self.sim.now)
        if packet is None:
            self.wasted_opportunities += 1
        else:
            self._deliver(packet)
        self._index += 1
        if self._index >= len(self.trace):
            self._index = 0
            self._epoch += self.period
        self._schedule_next()

    def _deliver(self, packet: Packet) -> None:
        now = self.sim.now
        self.delivered_packets += 1
        self.delivered_bytes += packet.size
        self._per_flow_bytes[packet.flow_id] = (
            self._per_flow_bytes.get(packet.flow_id, 0) + packet.size)
        if _OBS.enabled:
            _OBS.emit(now, EventKind.DELIVER, f"link:{self.name}",
                      packet.flow_id, packet.size)
        for tap in self._taps:
            tap(packet, now)
        if self.sink is not None:
            self.sink.send(packet)

    def flow_bytes(self, flow_id: str) -> int:
        """Total bytes this link has delivered for ``flow_id``."""
        return self._per_flow_bytes.get(flow_id, 0)

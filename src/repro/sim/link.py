"""Links: rate-limited transmission, propagation delay, trace-driven rates.

A link owns an egress qdisc, a transmitter and a propagation delay:
packets offered via :meth:`Link.send` pass through the qdisc; the
transmitter serializes one packet at a time at the link rate, and each
packet reaches ``sink`` (the next element on the path) ``delay``
seconds after its serialization ends -- Mahimahi's ``link`` and
``delay`` shells in one element, as every path here composes them.

A :class:`Link` puts one event on the heap per packet: its arrival at
the sink.  The end of a serialization is not an event.  The link
applies it at its own virtual timestamp when something next touches
the link -- a :meth:`Link.send`, one of its own arrivals, a retry of a
token-gated qdisc, a stats read or the end of :meth:`Simulator.run
<repro.sim.engine.Simulator.run>`.  That work is the delivery
counters, the taps and the dequeue of the next packet at that
timestamp, so every qdisc sees its enqueues and dequeues in the time
order it would with one event per completion.  A transmission that
ends at T has ended for anything else at T.  New heap entries (an
arrival, a retry) are filed only by a send, an arrival or a retry, so
a stats read or a traced run's wake changes no later event's order.
ACKs cross a :class:`Wire`, a lazy link with no qdisc, as nothing
congests their path.

Taps (observer callbacks) fire on every delivery, at the time the
packet's serialization ended; measurement code uses them to compute
ground-truth rates without touching the data path.  A tap may record
what it is shown, but not schedule or send.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Protocol

from ..errors import ConfigError
from ..obs.bus import BUS as _OBS, EventKind
from ..qdisc.base import Qdisc
from .engine import Simulator
from .packet import Packet


class PacketSink(Protocol):
    """Anything that can accept a packet (link, loss box, host)."""

    def send(self, packet: Packet) -> None: ...


Tap = Callable[[Packet, float], None]

#: A lazy link's ``_next`` while nothing is due: later than any time.
_IDLE = float("inf")
#: ``Wire._waiting``'s head when it is empty.
_NONE = (_IDLE, None)


class _Egress:
    """What every link kind shares: delivery accounting, taps, and the
    propagation pipe from the end of a transmission to ``sink``.

    A fixed delay keeps arrivals in transmission order, so the pipe is
    a deque and each arrival a bound-method event.  A lazy kind applies
    the ends due by now (``_catch_up``) before a read or an arrival."""

    def __init__(self, sim: Simulator, sink: Optional[PacketSink],
                 delay: float, name: str):
        if delay < 0:
            raise ConfigError(f"delay must be non-negative: {delay}")
        self.sim = sim
        self.sink = sink
        self.delay = delay
        self.name = name
        self._taps: list[Tap] = []
        self._pipe: deque[Packet] = deque()
        self._per_flow_bytes: dict[str, int] = {}

    #: When a lazy kind's next step is due (never, for eager kinds).
    _next = _IDLE

    def _settle(self) -> None:
        """Bring lazily applied state up to now."""
        now = self.sim.now
        if self._next <= now:
            self._catch_up(now)

    def add_tap(self, tap: Tap) -> None:
        """Register an observer called as ``tap(packet, now)`` on delivery."""
        self._taps.append(tap)

    @property
    def delivered_bytes(self) -> int:
        """Bytes whose transmission has ended."""
        self._settle()
        return sum(self._per_flow_bytes.values())

    def flow_bytes(self, flow_id: str) -> int:
        """Total bytes this link has delivered for ``flow_id``."""
        self._settle()
        return self._per_flow_bytes.get(flow_id, 0)

    def _account(self, packet: Packet, now: float) -> None:
        """A transmission ended at ``now``: count it and show the taps."""
        size = packet.size
        flow = packet.flow_id
        per_flow = self._per_flow_bytes
        per_flow[flow] = per_flow.get(flow, 0) + size
        if _OBS.enabled:
            _OBS.emit(now, EventKind.DELIVER, f"link:{self.name}", flow,
                      size)
        for tap in self._taps:
            tap(packet, now)

    def _propagate(self, packet: Packet) -> None:
        """Start ``packet`` down the pipe now (eager link kinds)."""
        self._pipe.append(packet)
        self.sim.call_later(self.delay, self._arrive)

    def _arrive(self) -> None:
        now = self.sim.now
        if self._next <= now:
            self._catch_up(now)
        packet = self._pipe.popleft()
        sink = self.sink
        if sink is not None:
            sink.send(packet)


class Link(_Egress):
    """A fixed-rate serializing link with an egress qdisc and a fixed
    propagation delay.

    Args:
        sim: the owning simulator.
        rate: transmission rate in bytes/second.
        sink: downstream element receiving each packet on arrival.
        qdisc: egress queue.
        delay: propagation delay (seconds) from the end of a packet's
            serialization to its arrival at ``sink``.
        name: label used in stats and debugging.
    """

    def __init__(self, sim: Simulator, rate: float, sink: PacketSink,
                 qdisc: Qdisc, delay: float, name: str = "link"):
        if rate <= 0:
            raise ConfigError(f"link rate must be positive: {rate}")
        super().__init__(sim, sink, delay, name)
        self._rate = float(rate)
        self._qdisc = qdisc
        # Only a qdisc that overrides next_ready_time holds packets
        # back from an idle link; with any other, idle waits for a send.
        self._gated = (type(self._qdisc).next_ready_time
                       is not Qdisc.next_ready_time)
        # The transmitter's chain: ``_next`` is the virtual time of its
        # next step -- the end of ``_in_flight``'s serialization, or a
        # retry of a token-gated qdisc when nothing is in flight -- and
        # infinite while it waits for a send.
        self._in_flight: Optional[Packet] = None
        self._next = _IDLE
        self._retry_event = None
        # Arrival times of packets a stats read or a traced run's wake
        # started, not yet on the heap.
        self._unfiled: list[float] = []
        self._busy_time = 0.0
        sim.add_settler(self._settle)

    # -- configuration ---------------------------------------------------

    @property
    def rate(self) -> float:
        """Current transmission rate (bytes/second)."""
        return self._rate

    # -- data path ---------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Offer a packet to the link's egress queue."""
        now = self.sim.now
        if self._next <= now or self._unfiled:
            self._catch_up(now, True)
        self._qdisc.enqueue(packet, now)
        if self._in_flight is None:
            # Idle or waiting on a token-gated qdisc: try now.
            if self._retry_event is not None:
                self._retry_event.cancel()
                self._retry_event = None
            packet = self._qdisc.dequeue(now)
            if packet is None:
                if self._gated:
                    self._next = self._wait(now)
                    if self._next < _IDLE:
                        self._file_retry()
                else:
                    self._next = _IDLE
                return
            # One start, written out as in _catch_up: a link with no
            # backlog takes this branch once per packet.
            self._in_flight = packet
            tx_time = packet.size / self._rate
            self._busy_time += tx_time
            end = now + tx_time
            self._pipe.append(packet)
            self.sim.call_at(end + self.delay, self._arrive)
            if _OBS.enabled:
                self.sim.wake_at(end, self._settle)
            self._next = end

    def _wait(self, now: float) -> float:
        """Nothing to dequeue at ``now``: when a token-gated qdisc says to
        look again (the chain's next step), or ``_IDLE``."""
        ready = self._qdisc.next_ready_time(now)
        if ready is None:
            return _IDLE
        # The epsilon floor guards against zero-delay retry spins.
        retry = now + max(1e-6, ready - now)
        if _OBS.enabled:
            self.sim.wake_at(retry, self._settle)
        return retry

    def _catch_up(self, now: float, file: bool = False) -> None:
        """Apply every chain step due at or before ``now``, each at its
        own timestamp: end the packet in flight, then dequeue the next
        one (or learn when a token-gated qdisc is ready again).

        ``file`` says the caller is a send, an arrival or a retry: the
        arrivals of what the chain starts go on the heap now, after any
        started earlier.  Otherwise they wait in ``_unfiled``."""
        sim = self.sim
        if file and self._unfiled:
            for when in self._unfiled:
                sim.call_at(when, self._arrive)
            self._unfiled.clear()
        due = self._next
        while due <= now:
            packet = self._in_flight
            if packet is not None:
                # _account, written out: this runs once per packet.
                size = packet.size
                flow = packet.flow_id
                per_flow = self._per_flow_bytes
                per_flow[flow] = per_flow.get(flow, 0) + size
                if _OBS.enabled:
                    _OBS.emit(due, EventKind.DELIVER, f"link:{self.name}",
                              flow, size)
                for tap in self._taps:
                    tap(packet, due)
            packet = self._qdisc.dequeue(due)
            self._in_flight = packet
            if packet is None:
                due = self._wait(due) if self._gated else _IDLE
                continue
            tx_time = packet.size / self._rate
            self._busy_time += tx_time
            end = due + tx_time
            self._pipe.append(packet)
            if file:
                sim.call_at(end + self.delay, self._arrive)
            else:
                self._unfiled.append(end + self.delay)
            if _OBS.enabled:
                sim.wake_at(end, self._settle)
            due = end
        self._next = due

    def _file_retry(self) -> None:
        """The chain waits on a token-gated qdisc: put its retry on the
        heap, unless one is there already."""
        if self._retry_event is None:
            self._retry_event = self.sim.schedule_at(self._next, self._retry)

    def _retry(self) -> None:
        self._retry_event = None
        self._catch_up(self.sim.now, True)
        if self._in_flight is None and self._next < _IDLE:
            self._file_retry()

    def _arrive(self) -> None:
        now = self.sim.now
        if self._next <= now or self._unfiled:
            self._catch_up(now, True)
        if self._in_flight is None and self._next < _IDLE:
            self._file_retry()
        packet = self._pipe.popleft()
        sink = self.sink
        if sink is not None:
            sink.send(packet)

    # -- stats -------------------------------------------------------------

    @property
    def qdisc(self) -> Qdisc:
        """The egress queue, with every dequeue due by now applied."""
        self._settle()
        return self._qdisc

    @property
    def busy_time(self) -> float:
        """Seconds of serialization started so far."""
        self._settle()
        return self._busy_time

    @property
    def queue_delay(self) -> float:
        """Instantaneous queueing delay at the current rate (seconds)."""
        return self.qdisc.byte_length / self._rate


class Wire(_Egress):
    """A :class:`Link` with an unbounded FIFO and no qdisc: per packet one
    ``max``, one division and one heap push.  Its ends and arrivals are
    the floats a :class:`Link` computes, applied at the same touches;
    only a packet sent while another serializes has its arrival filed at
    the send, not when its own serialization starts."""

    def __init__(self, sim: Simulator, rate: float, sink: PacketSink,
                 delay: float, name: str):
        if rate <= 0:
            raise ConfigError(f"link rate must be positive: {rate}")
        super().__init__(sim, sink, delay, name)
        self._rate = float(rate)
        self._free = 0.0  # when the last serialization started ends
        # Started, not yet applied: ``_head`` ends at ``_next`` (or
        # ``_IDLE``: none), and ``(end, packet)`` wait behind it.
        self._head: Optional[Packet] = None
        self._next = _IDLE
        self._waiting: deque[tuple[float, Packet]] = deque()
        sim.add_settler(self._settle)

    def send(self, packet: Packet) -> None:
        """Start serializing ``packet`` once the wire is free."""
        now = self.sim.now
        if self._next <= now:
            self._catch_up(now)
        free = self._free
        end = (free if free > now else now) + packet.size / self._rate
        self._free = end
        if self._next == _IDLE:
            self._head = packet
            self._next = end
        else:
            self._waiting.append((end, packet))
        self._pipe.append(packet)
        self.sim.call_at(end + self.delay, self._arrive)
        if _OBS.enabled:
            self.sim.wake_at(end, self._settle)

    def _catch_up(self, now: float) -> None:
        """Apply every serialization end due by ``now``, at its time."""
        end = self._next
        packet = self._head
        waiting = self._waiting
        while end <= now:
            self._account(packet, end)
            end, packet = waiting.popleft() if waiting else _NONE
        self._next = end
        self._head = packet


class TraceLink(_Egress):
    """Trace-driven variable-rate link (Mahimahi ``mm-link`` semantics).

    The trace is a sequence of delivery-opportunity timestamps
    (milliseconds); at each opportunity the link may transmit exactly
    one packet of up to MTU bytes.  The trace repeats forever with its
    final timestamp as the period.  Each transmitted packet reaches
    ``sink`` ``delay`` seconds after its opportunity.

    Delivery opportunities with an empty queue are wasted -- this is
    what makes trace links faithful models of cellular schedulers.
    """

    MTU = 1514

    def __init__(self, sim: Simulator, opportunities_ms: list[float],
                 delay: float, sink: PacketSink, qdisc: Qdisc,
                 name: str = "tracelink"):
        if not opportunities_ms:
            raise ConfigError("trace must contain at least one opportunity")
        if any(b < a for a, b in zip(opportunities_ms, opportunities_ms[1:])):
            raise ConfigError("trace timestamps must be non-decreasing")
        if opportunities_ms[-1] <= 0:
            raise ConfigError("trace period must be positive")
        super().__init__(sim, sink, delay, name)
        self.trace = [t / 1000.0 for t in opportunities_ms]
        self.period = self.trace[-1]
        self.qdisc = qdisc
        self.wasted_opportunities = 0
        self._index = 0
        self._epoch = 0.0
        self._schedule_next()

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
            self._account(packet, self.sim.now)
            self._propagate(packet)
        self._index += 1
        if self._index >= len(self.trace):
            self._index = 0
            self._epoch += self.period
        self._schedule_next()

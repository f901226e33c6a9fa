"""Adaptive-bitrate (ABR) video streaming.

The paper's §2.2 argues most bytes on the Internet are video, whose
demand is bounded by the bitrate ladder and adapted *by the
application* -- so its bandwidth allocation is set by ABR logic, not by
CCA contention.  This model implements chunked HTTP-style streaming
with a buffer-based ABR policy (BBA-like): pick bitrates by playback
buffer level, stall when the buffer empties, cap the buffer at a
maximum.

Each chunk is a request/response over the flow's transport connection;
between chunks the connection is idle (application-limited) -- exactly
the on/off pattern that shows up as low elasticity in Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cca.cubic import CubicCca
from ..sim.engine import Simulator
from ..sim.network import PathHandles
from ..tcp.endpoint import Connection
from ..units import mbps
from .base import TrafficSource

#: A Netflix/YouTube-style bitrate ladder, in Mbit/s.
LADDER_MBPS = (0.6, 1.5, 3.0, 4.5, 8.0, 16.0)


@dataclass
class VideoStats:
    """Playback quality statistics."""

    chunks_fetched: int = 0
    stalls: int = 0
    stall_time: float = 0.0
    bitrate_history: list[float] = field(default_factory=list)


class VideoStream(TrafficSource):
    """Buffer-based ABR video client+server pair on one connection.

    Args:
        sim: the simulator.
        path: topology the stream runs over.
        flow_id: flow identifier.

    The transport is Cubic, and the bitrates are :data:`LADDER_MBPS`.
    """

    #: media seconds per chunk
    chunk_seconds = 2.0
    #: buffer levels (seconds) mapped to the bottom/top of the ladder
    #: (BBA's reservoir+cushion)
    low_reservoir, high_reservoir = 4.0, 10.0
    #: playback buffer cap (seconds); no fetches while full
    max_buffer = 12.0

    def __init__(self, sim: Simulator, path: PathHandles, flow_id: str):
        self.sim = sim
        self.flow_id = flow_id
        self.ladder = [mbps(b) for b in LADDER_MBPS]  # bytes/second
        self.stats = VideoStats()

        self.connection = Connection(sim, path, flow_id, CubicCca(),
                                     on_data=self._on_bytes)
        self.buffer_seconds = 0.0
        self._buffer_updated = 0.0
        self._chunk_remaining = 0
        self._fetching = False
        self._stall_started: float | None = None
        self._running = False

    # -- ABR policy ---------------------------------------------------------

    def _choose_bitrate(self) -> float:
        """BBA-style linear map from buffer level to ladder position."""
        buf = self.buffer_seconds
        if buf <= self.low_reservoir:
            return self.ladder[0]
        if buf >= self.high_reservoir:
            return self.ladder[-1]
        frac = ((buf - self.low_reservoir)
                / (self.high_reservoir - self.low_reservoir))
        idx = int(frac * (len(self.ladder) - 1))
        return self.ladder[idx]

    # -- playback clock --------------------------------------------------------

    def _drain_buffer(self) -> None:
        now = self.sim.now
        elapsed = now - self._buffer_updated
        self._buffer_updated = now
        if self._stall_started is not None:
            return  # stalled: buffer is empty, clock charged on unstall
        self.buffer_seconds = max(0.0, self.buffer_seconds - elapsed)
        if self.buffer_seconds <= 0.0 and self.stats.chunks_fetched > 0:
            self._stall_started = now
            self.stats.stalls += 1

    # -- fetch loop ---------------------------------------------------------------

    def start(self) -> None:
        self._running = True
        self._buffer_updated = self.sim.now
        self._maybe_fetch()

    def stop(self) -> None:
        self._running = False

    def _maybe_fetch(self) -> None:
        if not self._running or self._fetching:
            return
        self._drain_buffer()
        if self.buffer_seconds + self.chunk_seconds > self.max_buffer:
            # Buffer full: wait until there is room for one more chunk.
            wait = self.buffer_seconds + self.chunk_seconds - self.max_buffer
            self.sim.schedule(max(wait, 0.01), self._maybe_fetch)
            return
        bitrate = self._choose_bitrate()
        self.stats.bitrate_history.append(bitrate)
        chunk_bytes = int(bitrate * self.chunk_seconds)
        self._chunk_remaining = chunk_bytes
        self._fetching = True
        self.connection.sender.write(chunk_bytes)

    def _on_bytes(self, nbytes: int, now: float) -> None:
        if not self._fetching:
            return
        self._chunk_remaining -= nbytes
        if self._chunk_remaining > 0:
            return
        # Chunk complete.
        self._fetching = False
        self.stats.chunks_fetched += 1
        self._drain_buffer()
        if self._stall_started is not None:
            self.stats.stall_time += now - self._stall_started
            self._stall_started = None
            self._buffer_updated = now
        self.buffer_seconds += self.chunk_seconds
        self._maybe_fetch()

    @property
    def delivered_bytes(self) -> int:
        return self.connection.receiver.received_bytes

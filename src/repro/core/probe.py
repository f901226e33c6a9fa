"""The active measurement probe of §3.2.

An :class:`ElasticityProbe` is a speedtest-style flow that runs Nimbus
with mode switching disabled and pulses maintained, and reports the
elasticity of whatever cross traffic shares its bottleneck.  It owns a
transport connection on an existing path and exposes the elasticity
time series plus summary verdicts.

The probe is the tool the paper proposes pointing at many Internet
paths to settle its hypothesis; :mod:`repro.core.campaign` runs fleets
of them over synthetic path populations.

Known sensitivity: elasticity readings degrade when the path's
queueing delay is both large and fast-varying (very deep buffers under
loss-based competition, or high-volatility cellular links), because
the S(t - srtt) alignment inside ẑ smears; see E11 in EXPERIMENTS.md
for the measured boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cca.nimbus import PULSE_AMPLITUDE, PULSE_FREQ, NimbusCca
from ..sim.engine import Simulator
from ..sim.network import PathHandles
from ..tcp.endpoint import Connection
from .detector import ordered_mean
from .elasticity import ElasticityReading

#: Seconds after the start whose readings both probes' reports drop
#: (the start-up transient); every verdict is over the readings after.
WARMUP = 6.0


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one probe run.

    Attributes:
        readings: elasticity time series.
        mean_elasticity: mean over the (post-warmup) readings.
        peak_elasticity: max over the readings.
        mean_throughput: the probe's goodput (bytes/second).
        duration: measurement duration (seconds).
    """

    readings: tuple[ElasticityReading, ...]
    mean_elasticity: float
    peak_elasticity: float
    mean_throughput: float
    duration: float

    @classmethod
    def summarize(cls, readings, throughput: float,
                  duration: float) -> "ProbeReport":
        """The report over ``readings`` (both backends' one reduction)."""
        values = [r.elasticity for r in readings]
        return cls(readings=tuple(readings),
                   mean_elasticity=ordered_mean(values) if values else 0.0,
                   peak_elasticity=max(values, default=0.0),
                   mean_throughput=throughput, duration=duration)


class ElasticityProbe:
    """A Nimbus measurement flow attached to a path.

    Args:
        sim: the simulator.
        path: topology handles from a builder in :mod:`repro.sim.network`.
        capacity_hint: bottleneck capacity if known (speedtest servers
            typically learn it in a warmup phase); None auto-estimates.
        pulse_freq / pulse_amplitude: pulse parameters; the defaults
            are :mod:`repro.cca.nimbus`'s probe pulse.
    """

    #: the probe flow's identifier
    flow_id = "probe"

    def __init__(self, sim: Simulator, path: PathHandles,
                 capacity_hint: float | None = None,
                 pulse_freq: float = PULSE_FREQ,
                 pulse_amplitude: float = PULSE_AMPLITUDE, jitter=None):
        self.sim = sim
        self.cca = NimbusCca(
            capacity_hint=capacity_hint, pulse_freq=pulse_freq,
            pulse_amplitude=pulse_amplitude)
        self.connection = Connection(sim, path, self.flow_id, self.cca,
                                     jitter=jitter)
        self._started_at: float | None = None

    def start(self) -> None:
        """Begin probing (persistently backlogged from now on)."""
        self._started_at = self.sim.now
        self.connection.sender.set_infinite_backlog()

    @property
    def readings(self) -> list[ElasticityReading]:
        return self.cca.elasticity_readings

    @property
    def delivered_bytes(self) -> int:
        """The probe's goodput so far, like any traffic source's."""
        return self.connection.receiver.received_bytes

    def readings_between(self, t_start: float, t_end: float
                         ) -> list[ElasticityReading]:
        """Readings whose window ended within [t_start, t_end)."""
        return [r for r in self.readings if t_start <= r.time < t_end]

    def report(self) -> ProbeReport:
        """Summarize the probe's readings from :data:`WARMUP` after its
        start up to now."""
        started = self._started_at if self._started_at is not None else 0.0
        lo = started + WARMUP
        hi = self.sim.now
        duration = max(hi - started, 1e-9)
        return ProbeReport.summarize(
            self.readings_between(lo, hi),
            self.delivered_bytes / duration, hi - lo)

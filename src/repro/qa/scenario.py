"""Scenario model and runner for the QA fuzzer.

A :class:`Scenario` is a fully serializable description of one
simulation: link parameters, one of the eight qdiscs, a set of flows
drawn from all nine CCAs, and a cross-traffic mix from the traffic
registry.  Scenarios round-trip through plain dicts (JSON), which is
what makes the regression corpus under ``tests/corpus/`` possible.

:func:`run_scenario` executes a scenario under full trace capture,
runs the four :mod:`repro.obs.invariants` checkers over the trace
(including the final-occupancy cross-check against the live qdisc),
and returns a :class:`ScenarioOutcome` whose :meth:`fingerprint` is a
deterministic digest of everything observable -- the unit of
comparison for the metamorphic oracles.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..core.axes import AXES, axis_values, drop_defaults
from ..core.detector import probe_summary
from ..core.path import QDISC_NAMES, build_packet_path, build_qdisc
from ..errors import ConfigError
from ..obs.bus import capture
from ..obs.invariants import check_trace
from ..store.fingerprint import fingerprint
from ..traffic.mix import CROSS_TRAFFIC_REGISTRY

#: Every CCA in :mod:`repro.cca` a fuzzed flow can run (Nimbus is the
#: probe's CCA and is exercised by the probe scenario family).
FLOW_CCAS = ("reno", "newreno", "cubic", "vegas", "copa", "bbr",
             "dctcp", "ledbat", "cbr")

#: Scenario families: "flows" pits CCA mixes against each other behind
#: one qdisc; "probe" attaches the paper's elasticity probe to a path
#: with one cross-traffic type (the §3.2 measurement setup).
FAMILIES = ("flows", "probe")


@dataclass(frozen=True)
class FlowSpec:
    """One fuzzed flow.

    Attributes:
        cca: a name from :data:`FLOW_CCAS`.
        rate_frac: for ``cbr``, the constant rate as a fraction of the
            link rate (ignored for window-based CCAs).
        user_id: subscriber identifier (HTB classes key on this).
        start: seconds after t=0 when the flow begins sending.
        ecn: negotiate ECN (DCTCP wants this; harmless elsewhere).
    """

    cca: str
    rate_frac: float = 0.3
    user_id: str = ""
    start: float = 0.0
    ecn: bool = False

    def __post_init__(self):
        if self.cca not in FLOW_CCAS:
            raise ConfigError(f"unknown flow CCA {self.cca!r}; "
                              f"known: {', '.join(FLOW_CCAS)}")
        if not 0.0 < self.rate_frac <= 1.0:
            raise ConfigError(f"rate_frac must be in (0, 1]: {self.rate_frac}")
        if self.start < 0:
            raise ConfigError(f"start must be >= 0: {self.start}")


@dataclass(frozen=True)
class Scenario:
    """One random-but-valid simulation, fully serializable.

    Attributes:
        family: "flows" or "probe" (see :data:`FAMILIES`).
        rate_mbps / rtt_ms / buffer_multiplier: link parameters.
        qdisc: bottleneck discipline, one of :data:`QDISC_NAMES`.
        flows: the fuzzed flows ("flows" family; empty for "probe").
        cross_traffic: a name from the cross-traffic registry; the
            probe's competitor in the "probe" family, extra background
            load in the "flows" family.
        duration: simulated seconds.
        seed: the scenario's own seed (qdisc salts, traffic RNG).
        backend: "packet" (the discrete-event engine) or "fluid" (the
            rate-based fast path, :mod:`repro.fluid`).
        timing_jitter: endpoint-timing-jitter amplitude in
            ``[0, 0.5]`` (0 = perfect clocks).  Models endpoint CPU
            contention perturbing pacing/ACK clocking (2BRobust, see
            :mod:`repro.sim.jitter`); applies to measured flows and
            the probe, not to cross traffic.
        medium: the bottleneck regime: "queue" (default -- the qdisc
            fronts a serializing link) or "csma-<n>[-prio]" (a
            CSMA/CA shared medium with n stations; flows map to
            stations, each fronted by its own qdisc instance; see
            :mod:`repro.medium`).
    """

    family: str
    rate_mbps: float
    rtt_ms: float
    qdisc: str
    duration: float
    seed: int
    buffer_multiplier: float = 1.0
    flows: tuple[FlowSpec, ...] = ()
    cross_traffic: str = "none"
    backend: str = AXES["backend"].default
    timing_jitter: float = AXES["timing_jitter"].default
    medium: str = AXES["medium"].default

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.rate_mbps <= 0 or self.rtt_ms <= 0 or self.duration <= 0:
            raise ConfigError(f"invalid link/duration in {self}")
        if self.buffer_multiplier <= 0:
            raise ConfigError(
                f"buffer_multiplier must be positive: {self.buffer_multiplier}")
        if self.qdisc not in QDISC_NAMES:
            raise ConfigError(f"unknown qdisc {self.qdisc!r}; "
                              f"known: {', '.join(QDISC_NAMES)}")
        if self.cross_traffic not in CROSS_TRAFFIC_REGISTRY:
            raise ConfigError(
                f"unknown cross traffic {self.cross_traffic!r}")
        if self.family == "flows" and not self.flows:
            raise ConfigError("'flows' scenarios need at least one flow")
        if self.family == "probe" and self.flows:
            raise ConfigError("'probe' scenarios take cross_traffic, "
                              "not explicit flows")
        for axis in AXES.values():
            axis.validate(getattr(self, axis.name, axis.default))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready; round-trips via from_dict).

        Default-valued late axes (:mod:`repro.core.axes`) are omitted
        so every pre-existing scenario fingerprint -- and the whole
        regression corpus -- is unchanged by their existence.
        """
        d = dataclasses.asdict(self)
        d["flows"] = [dataclasses.asdict(f) for f in self.flows]
        return drop_defaults(d)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        payload = dict(data)
        payload["flows"] = tuple(FlowSpec(**f)
                                 for f in payload.get("flows", ()))
        return cls(**payload)

    def label(self) -> str:
        """Compact human-readable description (stable; used in logs)."""
        if self.family == "flows":
            what = ",".join(f.cca for f in self.flows)
        else:
            what = f"probe-vs-{self.cross_traffic}"
        extra = (f" cross={self.cross_traffic}"
                 if self.family == "flows" and self.cross_traffic != "none"
                 else "")
        tail = "".join(
            f" {AXES[name].tag}="
            + (f"{value:g}" if isinstance(value, float) else str(value))
            for name, value in drop_defaults(axis_values(self)).items())
        return (f"{self.family}[{what}] qdisc={self.qdisc}{extra} "
                f"{self.rate_mbps:g}mbps/{self.rtt_ms:g}ms "
                f"buf={self.buffer_multiplier:g} dur={self.duration:g}s "
                f"seed={self.seed}{tail}")

    def builder_arguments(self) -> dict:
        """What a path builder needs besides the scenario itself: the
        probe family is the probe plus its cross traffic, the flows
        family its flows plus any cross traffic named."""
        if self.family == "probe":
            return {"probe": True}
        return {"probe": False, "flows": self.flows,
                "cross_ids": (("cross",) if self.cross_traffic != "none"
                              else ())}


def scenario_fingerprint(scenario: Scenario) -> str:
    """Content fingerprint of a scenario (names corpus files)."""
    return fingerprint(scenario.to_dict(), kind="qa-scenario")


# -- outcome --------------------------------------------------------------

@dataclass
class ScenarioOutcome:
    """Everything observable from one scenario run.

    Attributes:
        scenario: the executed scenario.
        delivered: goodput bytes per flow id (includes "cross"/"probe").
        qdisc_stats: the bottleneck qdisc's counters and residuals.
        events_processed: callbacks the engine executed.
        clock: final simulation time.
        violations: invariant violations found in the trace (strings;
            empty on a healthy run).
        probe: probe-family summary (mean elasticity, verdict fields),
            None for "flows" scenarios.
    """

    scenario: Scenario
    delivered: dict[str, int]
    qdisc_stats: dict[str, float]
    events_processed: int
    clock: float
    violations: list[str] = field(default_factory=list)
    probe: dict | None = None

    @property
    def total_delivered(self) -> int:
        """Total goodput bytes across all flows."""
        return sum(self.delivered.values())

    def summary(self) -> dict:
        """Canonical, fingerprintable digest of the outcome."""
        return {
            "scenario": self.scenario.to_dict(),
            "delivered": dict(sorted(self.delivered.items())),
            "qdisc": dict(sorted(self.qdisc_stats.items())),
            "events": self.events_processed,
            "clock": self.clock,
            "violations": list(self.violations),
            "probe": self.probe,
        }

    def fingerprint(self) -> str:
        """Deterministic digest of :meth:`summary` (the metamorphic
        comparison unit: equal fingerprints == identical results)."""
        return fingerprint(self.summary(), kind="qa-outcome")


def run_scenario(scenario: Scenario,
                 check_invariants: bool = True) -> ScenarioOutcome:
    """Execute one scenario and audit its trace.

    The full event trace is captured and fed through
    :func:`repro.obs.invariants.check_trace`, including the final
    occupancy cross-check against the live qdisc, so every fuzzed run
    doubles as an invariant audit.  ``check_invariants=False`` skips
    capture for metamorphic re-runs where only the outcome fingerprint
    matters (the fingerprint does not cover the raw trace).

    Scenarios with ``backend="fluid"`` dispatch to the rate-based
    backend (:mod:`repro.fluid`), which produces the same outcome
    shape without a packet trace.
    """
    if scenario.backend == "fluid":
        from ..fluid import run_scenario_fluid
        return run_scenario_fluid(scenario,
                                  check_invariants=check_invariants)

    # Starting a backlogged flow pumps its initial window into the
    # qdisc synchronously, so trace capture must already be active
    # while the path is built -- not just around sim.run() -- or the
    # invariant checker sees dequeues without their enqueues.
    with (capture() if check_invariants else nullcontext()) as trace:
        handles, sources = build_packet_path(
            scenario, **scenario.builder_arguments())
        handles.sim.run(until=scenario.duration)
    # On a shared medium the stats aggregate over the per-station
    # qdiscs (the medium has no single shared queue).
    roots = (handles.bottleneck.station_qdiscs
             if "medium" in handles.extras else [handles.bottleneck.qdisc])
    violations: list[str] = []
    if check_invariants:
        live = []
        for q in roots:
            live.append(q)
            child = getattr(q, "child", None)
            if child is not None:
                live.append(child)
        violations = [str(v) for v in check_trace(trace.events,
                                                  qdiscs=live)]
    probe = sources.get("probe")
    qdisc_stats = {
        "enqueued": float(sum(q.enqueued for q in roots)),
        "dequeued": float(sum(q.dequeued for q in roots)),
        "dequeued_bytes": float(sum(q.dequeued_bytes for q in roots)),
        "drops": float(sum(q.drops for q in roots)),
        "dropped_bytes": float(sum(q.dropped_bytes for q in roots)),
        "marks": float(sum(q.marks for q in roots)),
        "residual_packets": float(sum(len(q) for q in roots)),
        "residual_bytes": float(sum(q.byte_length for q in roots)),
    }
    return ScenarioOutcome(
        scenario=scenario,
        delivered={fid: int(src.delivered_bytes)
                   for fid, src in sources.items()},
        qdisc_stats=qdisc_stats,
        events_processed=handles.sim.events_processed,
        clock=handles.sim.now, violations=violations,
        probe=(probe_summary(probe.report()) if probe is not None
               else None))

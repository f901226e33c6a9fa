"""The oracle suite: what every fuzzed scenario must satisfy.

Three oracle classes, in the spirit of property-based CCA contracts
(Agarwal et al.) and the Nimbus ground-truth relationships (Goyal et
al.):

* **Invariant oracles** -- the trace-driven conservation and queue
  invariants from :mod:`repro.obs.invariants`, plus a capacity bound
  (a link cannot deliver more than rate x time).
* **Metamorphic oracles** -- properties relating *pairs* of runs:
  the same scenario twice (seed determinism), the same scenario at a
  higher link rate (throughput monotonicity), and the elasticity
  estimator under amplitude/time rescaling (exact analytic
  invariances of the peak-to-background ratio).
* **Paper-level oracles** -- end-to-end ground truth: backlogged
  Reno/BBR cross traffic behind a shared FIFO must read elastic;
  CBR/Poisson/idle cross traffic must not.

Each oracle declares a ``period``: expensive metamorphic oracles that
re-run the simulation are only applied to every Nth fuzzed scenario
(deterministically, by scenario index), keeping a 200-scenario budget
affordable while every oracle still sees a spread of scenarios.

``REPRO_QA_FAULT`` deliberately injects a failure (the analogue of the
pool's ``REPRO_FAULT_RATE``): set it to ``any``, ``cca:<name>``,
``qdisc:<name>``, or ``cross:<name>`` and every matching scenario
fails its QA run.  Because the trigger is a stable predicate on the
scenario (not a random draw), the shrinker can minimize injected
failures exactly like real ones -- which is how the shrinker itself is
tested end to end.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.elasticity import elasticity_series
from ..medium.config import parse_medium
from ..runtime.pool import derive_seed
from .scenario import Scenario, ScenarioOutcome

#: Environment variable injecting a deterministic oracle failure.
FAULT_ENV = "REPRO_QA_FAULT"

#: Bump to invalidate cached envelopes when oracle semantics change.
#: 4: medium axis -- queue-regime gating of the calibrated envelopes,
#: CSMA contention envelopes, and the airtime-agreement oracle.
SUITE_VERSION = 4

#: One MTU-ish slack unit for byte-level tolerances.
_MTU = 1514

Runner = Callable[[Scenario], ScenarioOutcome]


@dataclass(frozen=True)
class OracleFinding:
    """One oracle violation on one scenario."""

    oracle: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"


class Oracle:
    """Base oracle: a named property checked against a scenario run.

    Attributes:
        name: stable identifier (corpus entries reference it).
        period: apply to every Nth fuzzed scenario (1 = all).  Corpus
            replay ignores the period.
        corpus_replay: whether corpus replay (and every fluid search
            candidate) should check this oracle (metamorphic oracles
            that re-run simulations are excluded to keep it cheap;
            ``qa fuzz`` still runs them).
    """

    name = "oracle"
    period = 1
    corpus_replay = True

    def applies(self, scenario: Scenario) -> bool:
        """Whether this oracle has anything to say about ``scenario``."""
        return True

    def check(self, scenario: Scenario, outcome: ScenarioOutcome,
              runner: Runner) -> list[str]:
        """Return violation messages (empty = property holds).

        ``runner`` executes auxiliary scenarios for metamorphic
        comparisons; implementations must derive any auxiliary scenario
        deterministically from ``scenario``.
        """
        raise NotImplementedError


class InvariantOracle(Oracle):
    """The four trace invariants hold (byte conservation, non-negative
    queues, monotonic clock, cwnd bounds), cross-checked against the
    live qdisc's final occupancy."""

    name = "invariants"

    def check(self, scenario, outcome, runner) -> list[str]:
        return list(outcome.violations)


class DeliveryBoundOracle(Oracle):
    """No scenario delivers more bytes than the link could carry.

    The bound is loose (10% + 50 MTU) because goodput accounting and
    wire accounting differ by headers; it exists to catch gross
    conservation failures (duplicated deliveries, negative sizes) that
    per-qdisc accounting alone cannot see.
    """

    name = "delivery-bound"

    def check(self, scenario, outcome, runner) -> list[str]:
        capacity = scenario.rate_mbps * 1e6 / 8.0
        limit = capacity * scenario.duration * 1.10 + 50 * _MTU
        if outcome.total_delivered > limit:
            return [f"delivered {outcome.total_delivered} bytes > "
                    f"link capacity bound {limit:.0f}"]
        return []


class SeedDeterminismOracle(Oracle):
    """Running the identical scenario twice yields identical results.

    This is the foundation every other guarantee (caching, resumable
    campaigns, worker-count invariance) is built on, checked at the
    outcome-fingerprint level: delivered bytes, qdisc counters, event
    counts, probe verdicts -- everything observable.
    """

    name = "seed-determinism"
    period = 5
    corpus_replay = False

    def check(self, scenario, outcome, runner) -> list[str]:
        again = runner(scenario)
        a, b = outcome.fingerprint(), again.fingerprint()
        if a != b:
            return [f"re-run diverged: {a[:12]} != {b[:12]}"]
        return []


class RateMonotonicityOracle(Oracle):
    """Raising the link rate never reduces total delivered bytes.

    Applies to "flows" scenarios with at least one elastic flow (an
    all-CBR scenario is rate-insensitive, which the oracle would pass
    trivially anyway).  All shaper/class rates derive from the link
    rate (see :func:`repro.qa.scenario.build_qdisc`), so scaling the
    scenario scales the whole bottleneck.  The 10% + 40 MTU slack
    absorbs AQM/timing noise; the oracle exists to catch gross
    anti-monotone regressions.
    """

    name = "rate-monotonicity"
    period = 6
    corpus_replay = False

    def applies(self, scenario) -> bool:
        return (scenario.family == "flows"
                and any(f.cca != "cbr" for f in scenario.flows))

    def check(self, scenario, outcome, runner) -> list[str]:
        faster = dataclasses.replace(scenario,
                                     rate_mbps=scenario.rate_mbps * 1.5)
        hi = runner(faster)
        floor = outcome.total_delivered * 0.9 - 40 * _MTU
        if hi.total_delivered < floor:
            return [f"1.5x link rate delivered {hi.total_delivered} "
                    f"bytes < {floor:.0f} (baseline "
                    f"{outcome.total_delivered})"]
        return []


class ElasticityRescalingOracle(Oracle):
    """The elasticity metric is invariant under amplitude and time
    rescaling of the cross-traffic signal.

    The peak-to-background ratio is analytically scale-free: scaling
    z(t) by s scales both peak and background by s; rescaling time by s
    while rescaling pulse frequency, window, and band by 1/s presents
    the FFT with bit-identical samples.  Checked on a synthetic pulse +
    noise series derived from the scenario seed, so every fuzzed
    scenario contributes a fresh input to the property.
    """

    name = "elasticity-rescaling"
    period = 3
    corpus_replay = False

    def check(self, scenario, outcome, runner) -> list[str]:
        rng = np.random.default_rng(
            derive_seed(scenario.seed, 0, "qa-rescale"))
        t = np.arange(0.0, 12.0, 0.01)
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        z = (2e5 + 1e5 * np.sin(2.0 * np.pi * 5.0 * t + phase)
             + 2e4 * rng.standard_normal(len(t)))
        base = [r.elasticity for r in elasticity_series(t, z)]
        problems = []

        scaled = [r.elasticity for r in elasticity_series(t, 3.0 * z)]
        if not np.allclose(base, scaled, rtol=1e-6, atol=1e-9):
            problems.append(
                "amplitude rescaling moved the elasticity metric: "
                f"max delta {np.max(np.abs(np.array(base) - scaled)):.3g}")

        s = 2.0
        stretched = [r.elasticity for r in elasticity_series(
            t * s, z, pulse_freq=5.0 / s, window=5.0 * s, step=0.5 * s,
            band=(1.0 / s, 12.0 / s))]
        if not np.allclose(base, stretched, rtol=1e-7, atol=1e-9):
            problems.append(
                "time rescaling moved the elasticity metric: "
                f"max delta "
                f"{np.max(np.abs(np.array(base) - stretched)):.3g}")
        return problems


# The detector's calibrated envelope, measured cell by cell (probe
# family, droptail, 20 s, mean-elasticity rule, threshold 2.0).  The
# verdict is deterministic per cell -- backlogged/CBR cross traffic
# makes the probe signal seed-independent -- so these are stable
# ground-truth cells, not flaky samples:
#
#   reno  20/20ms 2.84  20/50ms 3.24  48/20ms 1.75  48/50ms 7.13
#   bbr   20/20ms 4.68  20/50ms 1.45  48/20ms 5.54  48/50ms 1.74
#   cbr   20/20ms 2.53  20/50ms 0.61  48/20ms 0.90  48/50ms 0.14
#   none  0.00 everywhere
#
# Outside the envelope the detector genuinely misreads (BBR's
# rate-based probing yields a weak pulse response at long RTT; reno's
# sawtooth flattens at high BDP; CBR behind a shallow 20/20 queue
# aliases into the pulse band) -- known gray zones documented in
# TESTING.md, still fuzzed for invariants, but not judged for
# contention.  Poisson's verdict is seed-dependent near the threshold
# and is never judged.
# (Tuples, not sets: experiment E12 lists the cells in this order.)
_ELASTIC_ENVELOPE = (
    ("reno", 20.0, 20.0), ("reno", 20.0, 50.0), ("reno", 48.0, 50.0),
    ("bbr", 20.0, 20.0), ("bbr", 48.0, 20.0),
)
_INELASTIC_ENVELOPE = (
    ("cbr", 20.0, 50.0), ("cbr", 48.0, 20.0), ("cbr", 48.0, 50.0),
)

# The *contention* envelope: the same measurement repeated with the
# bottleneck replaced by a CSMA/CA shared medium (probe and cross
# traffic on separate stations).  Only two active stations exist in a
# probe scenario, so the cells hold for every non-priority station
# count; priority mixes change the contending station's access class
# and are deliberately unjudged.  Measured over five seeds each
# (20 s, droptail station queues, threshold 2.0):
#
#   reno 20/20ms  mean 8.8-13.3, always contending
#   bbr  20/20ms  mean 6.7-9.3,  always contending
#   cbr  48/20ms  mean 1.0-1.5,  never contending
#   cbr  48/50ms  mean 1.2-1.8,  never contending
#
# The rest of the queue envelope does not carry over: at 48 Mbit/s the
# MAC's airtime fairness caps the elastic competitor like per-flow FQ
# and reno/bbr read *clean* (near-threshold, seed-dependent), while an
# idle medium reads *contending* everywhere -- MAC overhead burns
# airtime in proportion to the probe's own pulses and ẑ sees it as
# elastic cross traffic.  Experiment E16 maps both effects; the
# oracles only judge the decisive cells above.
_MEDIUM_ELASTIC_ENVELOPE = {
    ("reno", 20.0, 20.0), ("bbr", 20.0, 20.0),
}
_MEDIUM_INELASTIC_ENVELOPE = {
    ("cbr", 48.0, 20.0), ("cbr", 48.0, 50.0),
}


def _probe_cell(scenario: Scenario) -> tuple[str, float, float]:
    return (scenario.cross_traffic, scenario.rate_mbps, scenario.rtt_ms)


def _judgeable_medium(scenario: Scenario):
    """The scenario's parsed medium, or None when its contention
    verdict is not judgeable (priority mixes change the contending
    station's access class and are outside the calibrated envelope)."""
    spec = parse_medium(scenario.medium)
    if spec is None or spec.priority == "mixed":
        return None
    return spec


class ElasticCrossOracle(Oracle):
    """Ground truth (Goyal et al.): backlogged Reno/BBR cross traffic
    behind a shared FIFO must read elastic (contending), within the
    detector's calibrated envelope (see :data:`_ELASTIC_ENVELOPE`;
    CSMA mediums are judged against the narrower
    :data:`_MEDIUM_ELASTIC_ENVELOPE`)."""

    name = "elastic-cross-detected"

    def applies(self, scenario) -> bool:
        if (scenario.family != "probe" or scenario.qdisc != "droptail"
                or scenario.duration < 18.0):
            return False
        if scenario.medium == "queue":
            return _probe_cell(scenario) in _ELASTIC_ENVELOPE
        return (_judgeable_medium(scenario) is not None
                and _probe_cell(scenario) in _MEDIUM_ELASTIC_ENVELOPE)

    def check(self, scenario, outcome, runner) -> list[str]:
        probe = outcome.probe or {}
        if not probe.get("contending"):
            return [f"{scenario.cross_traffic} cross traffic behind "
                    f"droptail read as non-contending (mean elasticity "
                    f"{probe.get('mean_elasticity', 0.0):.2f})"]
        return []


class InelasticCrossOracle(Oracle):
    """Ground truth: CBR/idle cross traffic must *not* read elastic,
    within the calibrated envelope (an idle path must read clean on
    any qdisc; CBR per :data:`_INELASTIC_ENVELOPE`).  ABR video is
    intermittently elastic by nature and is deliberately unjudged."""

    name = "inelastic-cross-clean"

    def applies(self, scenario) -> bool:
        if scenario.family != "probe":
            return False
        if scenario.cross_traffic == "none":
            # An idle path reads clean only behind a queue: on a CSMA
            # medium, MAC overhead burns airtime in proportion to the
            # probe's own pulses and reads as elastic cross traffic
            # (experiment E16).
            return scenario.medium == "queue"
        if scenario.qdisc != "droptail" or scenario.duration < 18.0:
            return False
        if scenario.medium == "queue":
            return _probe_cell(scenario) in _INELASTIC_ENVELOPE
        return (_judgeable_medium(scenario) is not None
                and _probe_cell(scenario) in _MEDIUM_INELASTIC_ENVELOPE)

    def check(self, scenario, outcome, runner) -> list[str]:
        probe = outcome.probe or {}
        if probe.get("contending"):
            return [f"{scenario.cross_traffic} cross traffic read as "
                    f"contending (mean elasticity "
                    f"{probe.get('mean_elasticity', 0.0):.2f})"]
        return []


class FluidPacketAgreementOracle(Oracle):
    """The fluid backend agrees with the packet backend where both are
    calibrated: on envelope cells the contention verdict must match,
    and the probe's share of delivered bytes must be within 0.25
    (absolute) of the packet run's.

    Applies only inside the calibrated envelope (probe family,
    droptail, >= 18 s) where the packet verdict is deterministic
    ground truth; outside it both backends have documented gray zones
    and a disagreement is not a bug.  Scenarios on the
    endpoint-timing-jitter axis are excluded: the fluid model's
    per-tick rate noise is only a coarse analogue of pacing/ACK-clock
    perturbation, so near-threshold verdict flips between the
    backends under jitter are expected, not disagreement bugs.
    Shared-medium scenarios are judged by the dedicated
    :class:`MediumAirtimeAgreementOracle` instead.  Only
    packet-backend scenarios re-run on fluid (not the reverse) so the
    oracle never doubles the expensive direction.
    """

    name = "fluid-packet-agreement"
    period = 4
    corpus_replay = False

    def applies(self, scenario) -> bool:
        cell = _probe_cell(scenario)
        return (scenario.backend == "packet"
                and scenario.family == "probe"
                and scenario.qdisc == "droptail"
                and scenario.duration >= 18.0
                and scenario.timing_jitter == 0.0
                and scenario.medium == "queue"
                and (cell in _ELASTIC_ENVELOPE
                     or cell in _INELASTIC_ENVELOPE))

    @staticmethod
    def _probe_share(outcome: ScenarioOutcome) -> float:
        total = sum(outcome.delivered.values())
        if total <= 0:
            return 0.0
        return outcome.delivered.get("probe", 0) / total

    def check(self, scenario, outcome, runner) -> list[str]:
        fluid = runner(dataclasses.replace(scenario, backend="fluid"))
        problems = []
        p_probe = outcome.probe or {}
        f_probe = fluid.probe or {}
        if bool(p_probe.get("contending")) != bool(f_probe.get("contending")):
            problems.append(
                f"verdict disagreement: packet "
                f"contending={p_probe.get('contending')} (mean "
                f"{p_probe.get('mean_elasticity', 0.0):.2f}) vs fluid "
                f"contending={f_probe.get('contending')} (mean "
                f"{f_probe.get('mean_elasticity', 0.0):.2f})")
        p_share = self._probe_share(outcome)
        f_share = self._probe_share(fluid)
        if abs(p_share - f_share) > 0.25:
            problems.append(
                f"throughput-share disagreement: packet probe share "
                f"{p_share:.3f} vs fluid {f_share:.3f} "
                f"(tolerance 0.25)")
        return problems


class MediumAirtimeAgreementOracle(Oracle):
    """On calibrated CSMA cells the two media implementations must
    divide airtime the same way: the packet backend's slotted
    :class:`~repro.sim.medium.MediumLink` and the fluid backend's
    Bianchi-law :class:`~repro.fluid.queue.ContentionBottleneck` give
    the probe a share of delivered bytes that agrees within 0.15
    (measured spread across seeds is under 0.05 on these cells).

    Gated to the elastic contention-envelope cells: there both
    stations are saturated and the share is pinned by MAC fairness.
    On inelastic cells the share reflects transport dynamics (the
    packet probe's closed loop backs off under contention delay
    where the fluid law does not), a documented divergence -- see
    DESIGN.md's validity envelope.
    """

    name = "medium-airtime-agreement"
    period = 4
    corpus_replay = False

    def applies(self, scenario) -> bool:
        return (scenario.backend == "packet"
                and scenario.family == "probe"
                and scenario.qdisc == "droptail"
                and scenario.duration >= 18.0
                and scenario.timing_jitter == 0.0
                and _judgeable_medium(scenario) is not None
                and _probe_cell(scenario) in _MEDIUM_ELASTIC_ENVELOPE)

    def check(self, scenario, outcome, runner) -> list[str]:
        fluid = runner(dataclasses.replace(scenario, backend="fluid"))
        p_share = FluidPacketAgreementOracle._probe_share(outcome)
        f_share = FluidPacketAgreementOracle._probe_share(fluid)
        if abs(p_share - f_share) > 0.15:
            return [f"airtime disagreement on {scenario.medium}: "
                    f"packet probe share {p_share:.3f} vs fluid "
                    f"{f_share:.3f} (tolerance 0.15)"]
        return []


class InjectedFaultOracle(Oracle):
    """Deterministic failure injection via ``REPRO_QA_FAULT``.

    The trigger is a predicate on the scenario, so shrinking preserves
    it: ``any`` matches everything, ``cca:reno`` matches scenarios with
    a reno flow, ``qdisc:red`` / ``cross:cbr`` match the obvious
    fields.  Exercises the fuzz -> shrink -> corpus pipeline without a
    real simulator bug.
    """

    name = "injected-fault"

    @staticmethod
    def _trigger() -> str:
        return os.environ.get(FAULT_ENV, "")

    def applies(self, scenario) -> bool:
        return bool(self._trigger())

    def matches(self, scenario: Scenario) -> bool:
        """Whether the configured trigger matches ``scenario``."""
        trigger = self._trigger()
        if trigger == "any":
            return True
        kind, _, value = trigger.partition(":")
        if kind == "cca":
            return any(f.cca == value for f in scenario.flows)
        if kind == "qdisc":
            return scenario.qdisc == value
        if kind == "cross":
            return scenario.cross_traffic == value
        return False

    def check(self, scenario, outcome, runner) -> list[str]:
        if self.matches(scenario):
            return [f"injected fault ({FAULT_ENV}={self._trigger()!r})"]
        return []


#: The full suite, in a fixed order (findings are reported in it, and
#: a failure's oracle is its first finding's).
ORACLES: tuple[Oracle, ...] = (
    InvariantOracle(),
    DeliveryBoundOracle(),
    SeedDeterminismOracle(),
    RateMonotonicityOracle(),
    ElasticityRescalingOracle(),
    ElasticCrossOracle(),
    InelasticCrossOracle(),
    FluidPacketAgreementOracle(),
    MediumAirtimeAgreementOracle(),
    InjectedFaultOracle(),
)


def oracles_for_index(scenario: Scenario,
                      index: int | None) -> list[Oracle]:
    """The oracles applicable to one fuzzed scenario.

    ``index`` drives the period gating of expensive metamorphic
    oracles; ``None`` (corpus replay) runs every applicable
    ``corpus_replay`` oracle regardless of period.
    """
    chosen = []
    for oracle in ORACLES:
        if index is None:
            if not oracle.corpus_replay:
                continue
        elif oracle.period > 1 and index % oracle.period != 0:
            continue
        if oracle.applies(scenario):
            chosen.append(oracle)
    return chosen


def run_oracles(scenario: Scenario, outcome: ScenarioOutcome,
                runner: Runner, index: int | None = None
                ) -> list[OracleFinding]:
    """Run the (gated) oracle suite over one scenario outcome."""
    findings = []
    for oracle in oracles_for_index(scenario, index):
        for message in oracle.check(scenario, outcome, runner):
            findings.append(OracleFinding(oracle=oracle.name,
                                          message=message))
    return findings

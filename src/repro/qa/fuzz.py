"""Seeded scenario sampling and mutation: what the QA loop draws from.

:func:`sample_scenario` maps ``(index, seed)`` to one random-but-valid
:class:`~repro.qa.scenario.Scenario` through the same SHA-256 seed
derivation the parallel runtime uses, so the scenario stream is a pure
function of the campaign seed -- independent of process, platform, and
how many scenarios were drawn before.  ``repro qa fuzz`` is
:func:`repro.qa.search.run_search` with guidance off: candidate *k* is
``sample_scenario(k, seed)``, run on the packet backend.

:func:`mutate_scenario` applies one of the :data:`MUTATORS`; the
guided search builds its children with it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from ..runtime.pool import derive_seed
from ..traffic.mix import CROSS_TRAFFIC_REGISTRY
from .scenario import FLOW_CCAS, QDISC_NAMES, FlowSpec, Scenario

_FLOW_RATES = (4.0, 8.0, 16.0, 24.0)
_FLOW_RTTS = (10.0, 20.0, 40.0, 80.0)
_FLOW_BUFFERS = (0.5, 1.0, 2.0)
_FLOW_DURATIONS = (3.0, 5.0, 8.0)
_FLOW_CROSS = ("video", "poisson", "cbr")

_PROBE_RATES = (20.0, 48.0)
_PROBE_RTTS = (20.0, 50.0)
_PROBE_CROSS = ("none", "reno", "bbr", "video", "poisson", "cbr")


def sample_scenario(index: int, seed: int) -> Scenario:
    """Deterministically sample the ``index``-th scenario of a campaign.

    Roughly 20% of scenarios exercise the elasticity probe pipeline
    end to end; the rest sweep qdisc x CCA x traffic combinations.
    Probe scenarios stay inside the detector's calibrated envelope
    (paper-scale rates/RTTs, long enough for several pulse windows);
    flow scenarios roam freely since their oracles are
    scale-independent.
    """
    rng = np.random.default_rng(derive_seed(seed, index, "qa-scenario"))
    scenario_seed = int(rng.integers(0, 2**31 - 1))
    if rng.random() < 0.2:
        qdisc = str(rng.choice(("droptail", "fq"), p=(0.7, 0.3)))
        return Scenario(
            family="probe",
            rate_mbps=float(rng.choice(_PROBE_RATES)),
            rtt_ms=float(rng.choice(_PROBE_RTTS)),
            qdisc=qdisc,
            duration=20.0 if qdisc == "droptail" else 12.0,
            seed=scenario_seed,
            buffer_multiplier=1.0,
            cross_traffic=str(rng.choice(_PROBE_CROSS)),
        )
    n_flows = int(rng.integers(1, 5))
    duration = float(rng.choice(_FLOW_DURATIONS))
    flows = []
    for i in range(n_flows):
        cca = str(rng.choice(FLOW_CCAS))
        flows.append(FlowSpec(
            cca=cca,
            rate_frac=float(rng.choice((0.2, 0.3, 0.5))),
            user_id="a" if i % 2 == 0 else "b",
            start=float(rng.choice((0.0, 0.0, 0.5))),
            ecn=(cca == "dctcp"),
        ))
    cross = "none"
    if rng.random() < 0.3:
        cross = str(rng.choice(_FLOW_CROSS))
    return Scenario(
        family="flows",
        rate_mbps=float(rng.choice(_FLOW_RATES)),
        rtt_ms=float(rng.choice(_FLOW_RTTS)),
        qdisc=str(rng.choice(QDISC_NAMES)),
        duration=duration,
        seed=scenario_seed,
        buffer_multiplier=float(rng.choice(_FLOW_BUFFERS)),
        flows=tuple(flows),
        cross_traffic=cross,
    )


# -- mutation operators ---------------------------------------------------
#
# Each operator takes (scenario, rng) and returns a mutated scenario
# that is valid by construction and differs from its parent in the
# mutated field (so its fingerprint changes), or None when the
# operator does not apply.  The guided search (repro.qa.search) draws
# operators in rng order and keeps the first applicable result; the
# operators never touch `backend`, which the search manages itself
# (fluid for exploration, packet for failure replay).

_MUTATION_RATES = (1.0, 192.0)          # clamp range, mbps
_MUTATION_RTTS = (2.0, 200.0)           # clamp range, ms
_MUTATION_BUFFERS = (0.25, 0.5, 1.0, 2.0, 4.0)
_MUTATION_JITTER = (0.0, 0.05, 0.15, 0.3)
_MUTATION_RATE_FRACS = (0.2, 0.3, 0.5)
_MUTATION_STARTS = (0.0, 0.5, 1.0)
#: Medium mutation targets: the plain queue plus the CSMA/CA station
#: counts the contention envelope is calibrated over (powers of two up
#: to 8, one priority mix).
_MUTATION_MEDIUMS = ("queue", "csma-2", "csma-4", "csma-8",
                     "csma-4-prio")
_MUTATION_MAX_FLOWS = 5
_MUTATION_MAX_DURATION = 30.0
#: Duration floors per family: the probe needs several pulse windows
#: past warmup; flows just need to leave slow start.
_MUTATION_MIN_DURATION = {"probe": 12.0, "flows": 2.0}


def _choice_not(rng: np.random.Generator, options: Sequence, current):
    """A uniform choice among ``options`` minus ``current`` (None if
    nothing differs)."""
    others = [o for o in options if o != current]
    if not others:
        return None
    return others[int(rng.integers(0, len(others)))]


def _mut_seed(scenario: Scenario, rng: np.random.Generator):
    bump = 1 + int(rng.integers(0, 1 << 16))
    return dataclasses.replace(
        scenario, seed=(scenario.seed + bump) % (2**31 - 1))


def _mut_qdisc(scenario, rng):
    qdisc = _choice_not(rng, QDISC_NAMES, scenario.qdisc)
    return dataclasses.replace(scenario, qdisc=qdisc)


def _mut_rate(scenario, rng):
    factor = 0.5 if rng.random() < 0.5 else 2.0
    lo, hi = _MUTATION_RATES
    rate = min(hi, max(lo, scenario.rate_mbps * factor))
    if rate == scenario.rate_mbps:
        return None
    return dataclasses.replace(scenario, rate_mbps=rate)


def _mut_rtt(scenario, rng):
    factor = 0.5 if rng.random() < 0.5 else 2.0
    lo, hi = _MUTATION_RTTS
    rtt = min(hi, max(lo, scenario.rtt_ms * factor))
    if rtt == scenario.rtt_ms:
        return None
    return dataclasses.replace(scenario, rtt_ms=rtt)


def _mut_buffer(scenario, rng):
    mult = _choice_not(rng, _MUTATION_BUFFERS, scenario.buffer_multiplier)
    return dataclasses.replace(scenario, buffer_multiplier=mult)


def _mut_duration(scenario, rng):
    factor = 0.5 if rng.random() < 0.5 else 1.5
    floor = _MUTATION_MIN_DURATION[scenario.family]
    duration = min(_MUTATION_MAX_DURATION,
                   max(floor, scenario.duration * factor))
    if duration == scenario.duration:
        return None
    return dataclasses.replace(scenario, duration=duration)


def _mut_jitter(scenario, rng):
    level = _choice_not(rng, _MUTATION_JITTER, scenario.timing_jitter)
    return dataclasses.replace(scenario, timing_jitter=level)


def _mut_cross(scenario, rng):
    # The whole cross-traffic registry has fluid laws, so any choice
    # stays runnable on the search's fluid exploration backend.
    options = tuple(sorted(CROSS_TRAFFIC_REGISTRY))
    cross = _choice_not(rng, options, scenario.cross_traffic)
    return dataclasses.replace(scenario, cross_traffic=cross)


def _mut_medium(scenario, rng):
    # Both backends implement every medium (MediumLink on packet,
    # ContentionBottleneck on fluid), so any choice stays runnable on
    # the search's fluid exploration backend.
    medium = _choice_not(rng, _MUTATION_MEDIUMS, scenario.medium)
    return dataclasses.replace(scenario, medium=medium)


def _mut_add_flow(scenario, rng):
    if (scenario.family != "flows"
            or len(scenario.flows) >= _MUTATION_MAX_FLOWS):
        return None
    cca = str(rng.choice(FLOW_CCAS))
    spec = FlowSpec(
        cca=cca,
        rate_frac=float(rng.choice(_MUTATION_RATE_FRACS)),
        user_id="a" if len(scenario.flows) % 2 == 0 else "b",
        start=float(rng.choice(_MUTATION_STARTS)),
        ecn=(cca == "dctcp"),
    )
    return dataclasses.replace(scenario, flows=scenario.flows + (spec,))


def _mut_drop_flow(scenario, rng):
    if scenario.family != "flows" or len(scenario.flows) < 2:
        return None
    index = int(rng.integers(0, len(scenario.flows)))
    flows = scenario.flows[:index] + scenario.flows[index + 1:]
    return dataclasses.replace(scenario, flows=flows)


def _mut_swap_cca(scenario, rng):
    if scenario.family != "flows":
        return None
    index = int(rng.integers(0, len(scenario.flows)))
    spec = scenario.flows[index]
    cca = _choice_not(rng, FLOW_CCAS, spec.cca)
    new = dataclasses.replace(spec, cca=cca, ecn=(cca == "dctcp"))
    flows = (scenario.flows[:index] + (new,)
             + scenario.flows[index + 1:])
    return dataclasses.replace(scenario, flows=flows)


def _mut_rate_frac(scenario, rng):
    if scenario.family != "flows":
        return None
    index = int(rng.integers(0, len(scenario.flows)))
    spec = scenario.flows[index]
    frac = _choice_not(rng, _MUTATION_RATE_FRACS, spec.rate_frac)
    if frac is None:
        return None
    flows = (scenario.flows[:index]
             + (dataclasses.replace(spec, rate_frac=frac),)
             + scenario.flows[index + 1:])
    return dataclasses.replace(scenario, flows=flows)


def _mut_start(scenario, rng):
    if scenario.family != "flows":
        return None
    index = int(rng.integers(0, len(scenario.flows)))
    spec = scenario.flows[index]
    start = _choice_not(rng, _MUTATION_STARTS, spec.start)
    if start is None:
        return None
    flows = (scenario.flows[:index]
             + (dataclasses.replace(spec, start=start),)
             + scenario.flows[index + 1:])
    return dataclasses.replace(scenario, flows=flows)


#: All mutation operators, in a fixed order (the order is part of the
#: search's determinism contract: rng draws index permutations).
MUTATORS: tuple[Callable, ...] = (
    _mut_seed, _mut_qdisc, _mut_rate, _mut_rtt, _mut_buffer,
    _mut_duration, _mut_jitter, _mut_cross, _mut_add_flow,
    _mut_drop_flow, _mut_swap_cca, _mut_rate_frac, _mut_start,
    _mut_medium,
)


def mutate_scenario(scenario: Scenario,
                    rng: np.random.Generator) -> Scenario:
    """Apply one applicable mutation operator, chosen by ``rng``.

    The result is always a valid scenario whose fingerprint differs
    from the parent's (``_mut_seed`` applies to everything, so the
    loop cannot come up empty).
    """
    for index in rng.permutation(len(MUTATORS)):
        mutated = MUTATORS[int(index)](scenario, rng)
        if mutated is not None:
            return mutated
    raise AssertionError("unreachable: _mut_seed always applies")

"""Delta-debugging shrinker for failing scenarios.

Given a scenario and the oracle it violates, greedily apply
simplifying transformations -- drop flows, remove cross traffic,
halve the duration, swap in the plainest qdisc, and so on -- keeping
each candidate only if the oracle still applies *and* still fails.
The result is the minimal repro that goes into ``tests/corpus/``.

Greedy one-pass-per-round shrinking is sound here because every
transformation strictly simplifies the scenario (there are no cycles),
and it converges in a handful of rounds; ``max_runs`` bounds the total
simulator invocations regardless.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator

from .oracles import Oracle, Runner
from .scenario import Scenario

#: Duration floors: flow dynamics need a couple of seconds; the probe
#: needs warmup (6 s) plus at least one analysis window (5 s).
_FLOW_DURATION_FLOOR = 2.0
_PROBE_DURATION_FLOOR = 12.0


@dataclass
class ShrinkResult:
    """The minimized scenario plus bookkeeping about the search."""

    scenario: Scenario
    runs: int
    steps: list[str]


def _candidates(scenario: Scenario) -> Iterator[tuple[str, Scenario]]:
    """Yield (description, simplified-scenario) candidates, most
    aggressive first."""
    if len(scenario.flows) > 1:
        for i in range(len(scenario.flows)):
            kept = scenario.flows[:i] + scenario.flows[i + 1:]
            yield (f"drop flow {i} ({scenario.flows[i].cca})",
                   dataclasses.replace(scenario, flows=kept))
    if scenario.cross_traffic != "none" and scenario.family != "probe":
        yield ("remove cross traffic",
               dataclasses.replace(scenario, cross_traffic="none"))
    if scenario.timing_jitter != 0.0:
        yield ("remove timing jitter",
               dataclasses.replace(scenario, timing_jitter=0.0))
    if scenario.medium != "queue":
        yield ("replace shared medium with queue",
               dataclasses.replace(scenario, medium="queue"))
    floor = (_PROBE_DURATION_FLOOR if scenario.family == "probe"
             else _FLOW_DURATION_FLOOR)
    if scenario.duration > floor:
        shorter = max(floor, scenario.duration / 2.0)
        yield (f"halve duration to {shorter:g}s",
               dataclasses.replace(scenario, duration=shorter))
    if scenario.qdisc != "droptail":
        yield ("simplify qdisc to droptail",
               dataclasses.replace(scenario, qdisc="droptail"))
    if scenario.buffer_multiplier != 1.0:
        yield ("reset buffer multiplier to 1.0",
               dataclasses.replace(scenario, buffer_multiplier=1.0))
    if scenario.rate_mbps > 4.0:
        slower = max(4.0, scenario.rate_mbps / 2.0)
        yield (f"halve link rate to {slower:g} Mbps",
               dataclasses.replace(scenario, rate_mbps=slower))
    for i, flow in enumerate(scenario.flows):
        if flow.cca != "reno":
            simpler = (scenario.flows[:i]
                       + (dataclasses.replace(flow, cca="reno",
                                              ecn=False),)
                       + scenario.flows[i + 1:])
            yield (f"simplify flow {i} ({flow.cca} -> reno)",
                   dataclasses.replace(scenario, flows=simpler))
        if flow.start != 0.0:
            aligned = (scenario.flows[:i]
                       + (dataclasses.replace(flow, start=0.0),)
                       + scenario.flows[i + 1:])
            yield (f"start flow {i} at t=0",
                   dataclasses.replace(scenario, flows=aligned))


def _still_fails(scenario: Scenario, oracle: Oracle,
                 runner: Runner) -> bool:
    if not oracle.applies(scenario):
        return False
    try:
        outcome = runner(scenario)
    except Exception:
        # A candidate that crashes the simulator is a *different*
        # failure; keep shrinking the one we were asked about.
        return False
    return bool(oracle.check(scenario, outcome, runner))


#: Bound on simulator invocations during one :func:`shrink`.
MAX_RUNS = 80


def shrink(scenario: Scenario, oracle: Oracle,
           runner: Runner) -> ShrinkResult:
    """Minimize ``scenario`` while ``oracle`` keeps failing on it, in at
    most :data:`MAX_RUNS` runs.

    Args:
        scenario: a scenario known to fail ``oracle``.
        oracle: the oracle whose failure must be preserved.
        runner: executes candidate scenarios (``run_scenario``).
    """
    current = scenario
    runs = 0
    steps: list[str] = []
    improved = True
    while improved and runs < MAX_RUNS:
        improved = False
        for description, candidate in _candidates(current):
            if runs >= MAX_RUNS:
                break
            runs += 1
            if _still_fails(candidate, oracle, runner):
                current = candidate
                steps.append(description)
                improved = True
                break
    return ShrinkResult(scenario=current, runs=runs, steps=steps)

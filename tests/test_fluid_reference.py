"""The fluid hot loop against its plain twin, float for float.

``tests/helpers.py`` keeps every fluid bottleneck's ``tick``, the fluid
probe's ``advance`` and ``FluidModel.run`` written the plain way (a
comprehension per vector, ``ordered_sum`` and ``max``/``min`` calls,
the early-action hook asked on every tick, a cohort's rest rewritten at
each partial service).  The program's versions do only the arithmetic.
These tests step both side by side on arbitrary input and hold every
returned float and every piece of state equal by ``float.hex``:

* one bottleneck of every kind, 1-6 flows, arbitrary rate and buffer,
  fed arrival vectors that include zeros, signed zeros, bursts past the
  buffer, exact fits of the free space and exact service budgets;
* whole fluid paths and fuzzed scenarios of 2-6 s: every flow's
  state (``delivered_bytes``, rate, window, the probe's ẑ samples and
  send/receive histories), the qdisc counters, and the probe's readings
  (a reading needs a 5 s window, so only runs past 5 s have one).

``-m fuzz`` runs both at length.
"""

import dataclasses
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.campaign import PathSpec
from repro.core.elasticity import PulseGenerator
from repro.fluid.model import DT
from repro.fluid.queue import build_bottleneck
from repro.fluid.runner import build_fluid_path
from repro.medium.config import medium_names, parse_medium
from repro.qa.fuzz import sample_scenario

from .helpers import as_reference


def _hex(value):
    """``value`` with every float as ``float.hex`` (containers walked)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hex(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, deque)):
        return [_hex(item) for item in value]
    return value


def _cohort(entry):
    """A FIFO cohort as ``(size, bytes per flow)``; the program's carry a
    pending scale that multiplies out to the plain twin's rewrite."""
    if len(entry) == 3:
        size, values, scale = entry
        return size, [c * scale for c in values]
    return entry


def _state(bottleneck) -> dict:
    state = dict(vars(bottleneck))
    if "_cohorts" in state:
        state["_cohorts"] = [_cohort(entry) for entry in state["_cohorts"]]
    state["backlog"] = bottleneck.backlog
    return _hex(state)


#: Bottleneck kinds: every fluid qdisc, RED with ECN, and CSMA/CA media.
KINDS = (("droptail", False, "queue"), ("htb", False, "queue"),
         ("red", False, "queue"), ("red", True, "queue"),
         ("codel", False, "queue"), ("fq", False, "queue"),
         ("sfq", False, "queue"), ("tbf", False, "queue"),
         ("policer", False, "queue"),
         *(("droptail", False, medium) for medium in medium_names()[1:]),
         ("droptail", False, "csma-5"))

#: One flow's arrival in one tick, in units of the tick's service
#: budget (1.0 is exactly one tick of service), or ``"burst"``: three
#: buffers at once.
ARRIVAL = st.one_of(st.sampled_from((0.0, -0.0, 0.5, 1.0, "burst")),
                    st.floats(0.0, 3.0))

#: A tick is one arrival per flow, ``"idle"`` (every flow sends 0.0,
#: so the queue drains to its rounding residue), or ``"fit"``: the
#: first flow sends exactly the free buffer space and the others 0.0.
TICK = st.one_of(st.lists(ARRIVAL, min_size=6, max_size=6),
                 st.sampled_from(("idle", "fit")))

BOTTLENECK_PROGRAMS = st.tuples(
    st.integers(1, 6),
    st.sampled_from(KINDS),
    st.one_of(st.sampled_from((1.25e5, 2.5e6, 6e6, 2.5e7)),
              st.floats(1e4, 1e8)),
    st.one_of(st.sampled_from((0.5, 1.0, 4.0, 30.0)), st.floats(0.1, 60.0)),
    st.sampled_from((DT, DT, 0.001, 0.01)),
    st.lists(TICK, min_size=1, max_size=80))


def _arrivals(tick, n, budget, bottleneck):
    buffer_bytes = getattr(bottleneck, "buffer_bytes", budget)
    if tick == "idle":
        return [0.0] * n
    if tick == "fit":
        space = buffer_bytes - bottleneck.backlog
        return [space if space > 0.0 else 0.0] + [0.0] * (n - 1)
    return [3.0 * buffer_bytes if value == "burst" else value * budget
            for value in tick[:n]]


def check_bottleneck_against_reference(n, kind, rate, buffer_ticks, dt,
                                       ticks):
    qdisc, ecn, medium = kind
    buffer_bytes = buffer_ticks * rate * DT
    (fast, fast_rate), (plain, plain_rate) = (
        build_bottleneck(qdisc, n, rate, buffer_bytes, ecn=ecn,
                         medium=parse_medium(medium)) for _ in range(2))
    as_reference(plain)
    assert fast_rate == plain_rate
    for step, tick in enumerate(ticks):
        arrivals = _arrivals(tick, n, plain.rate * dt, plain)
        got = fast.tick(list(arrivals), dt)
        want = plain.tick(list(arrivals), dt)
        assert _hex(got) == _hex(want), (step, arrivals)
        assert _state(fast) == _state(plain), (step, arrivals)


#: Three ticks of arrivals, then an idle tick that drains the FIFO to a
#: negative rounding residue, which only the clamp to 0.0 removes.
NEGATIVE_RESIDUE = (2, KINDS[0], 2.5e6, 4.0, DT,
                    [[0.0, 1.11, 0.0, 1.0, 0.5, 0.0],
                     [1.36, 0.5, 0.0, 1.0, 0.7, 1.0],
                     [0.0, 1.0, 0.0, 0.0, 1.0, 0.0], "idle"])


@settings(max_examples=200, deadline=None)
@given(BOTTLENECK_PROGRAMS)
@example(NEGATIVE_RESIDUE)
def test_every_bottleneck_matches_its_plain_twin(program):
    check_bottleneck_against_reference(*program)


@pytest.mark.fuzz
@settings(max_examples=5000, deadline=None)
@given(BOTTLENECK_PROGRAMS)
def test_every_bottleneck_matches_its_plain_twin_at_length(program):
    check_bottleneck_against_reference(*program)


def test_pulse_offset_is_the_plain_sine():
    pulses = PulseGenerator(5.0, 0.35)
    plain = as_reference(PulseGenerator(5.0, 0.35))
    for k in range(2000):
        t = k * DT + k * 1e-7
        pulses.amplitude_frac = plain.amplitude_frac = 0.02 + k * 1e-4
        assert pulses.offset(t, 6e6).hex() == plain.offset(t, 6e6).hex()


def _flow_state(flow) -> dict:
    """A flow's numbers (its RNG and estimator objects left out), and a
    probe's ẑ samples."""
    state = {key: value for key, value in vars(flow).items()
             if isinstance(value, (int, float, str, list, tuple, deque))
             or value is None}
    if hasattr(flow, "estimator"):
        state["z"] = list(flow.estimator._samples)
    return state


def _outcome(model, members, duration):
    model.run(duration)
    out = {"now": model.now, "ticks": model.ticks,
           "qdisc": model.qdisc_stats(),
           "bottleneck": _state(model.bottleneck),
           "flows": {name: _flow_state(flow)
                     for name, flow in members.items()}}
    if "probe" in members:
        out["readings"] = [dataclasses.astuple(r)
                           for r in members["probe"].readings]
    return _hex(out)


def check_path_against_reference(spec, duration, arguments=None):
    arguments = arguments or {}
    fast = build_fluid_path(spec, **arguments)
    plain = build_fluid_path(spec, **arguments)
    as_reference(plain[0])
    assert _outcome(*fast, duration) == _outcome(*plain, duration)


FLUID_PATHS = st.tuples(
    st.builds(PathSpec,
              rate_mbps=st.one_of(st.sampled_from((5.0, 20.0, 48.0, 100.0)),
                                  st.floats(1.0, 200.0)),
              rtt_ms=st.floats(5.0, 200.0),
              qdisc=st.sampled_from(("droptail", "fq")),
              cross_traffic=st.sampled_from(("none", "reno", "bbr", "cbr",
                                             "poisson", "video")),
              buffer_multiplier=st.floats(0.2, 3.0),
              seed=st.integers(0, 2**31 - 1),
              medium=st.sampled_from(medium_names())),
    st.floats(2.0, 6.0))

#: A fuzzed scenario (every qdisc, 1-6 flows, late starts, ECN, timing
#: jitter, both CSMA/CA kinds), cut to 2-6 s.
FLUID_SCENARIOS = st.tuples(st.integers(0, 10_000), st.integers(0, 2**16),
                            st.floats(2.0, 6.0))


@settings(max_examples=30, deadline=None)
@given(FLUID_PATHS)
def test_fluid_paths_match_the_plain_loop(case):
    check_path_against_reference(*case)


@settings(max_examples=30, deadline=None)
@given(FLUID_SCENARIOS)
def test_fluid_scenarios_match_the_plain_loop(case):
    index, seed, duration = case
    scenario = dataclasses.replace(sample_scenario(index, seed),
                                   backend="fluid")
    check_path_against_reference(scenario, duration,
                                 scenario.builder_arguments())


@pytest.mark.fuzz
@settings(max_examples=500, deadline=None)
@given(FLUID_PATHS)
def test_fluid_paths_match_the_plain_loop_at_length(case):
    check_path_against_reference(*case)


@pytest.mark.fuzz
@settings(max_examples=500, deadline=None)
@given(FLUID_SCENARIOS)
def test_fluid_scenarios_match_the_plain_loop_at_length(case):
    index, seed, duration = case
    scenario = dataclasses.replace(sample_scenario(index, seed),
                                   backend="fluid")
    check_path_against_reference(scenario, duration,
                                 scenario.builder_arguments())

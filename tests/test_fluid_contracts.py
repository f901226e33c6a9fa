"""Contracts of the fluid backend that its golden file does not state.

* ``BbrFlow``'s windowed-max bandwidth filter (a monotonic deque)
  equals the brute-force max over the window, ties and edge-of-window
  expiry included.
* No numpy scalar leaves :mod:`repro.fluid`: every number in a fluid
  result is a builtin ``int``/``float``, so ``repr()``, JSON and pickle
  size do not depend on the container the tick loop happens to use.
* The store fingerprint of a fluid campaign's outcome is the one the
  numpy-vector tick loop produced (recorded on the commit before the
  rewrite).
"""

import dataclasses
import hashlib
import random

from repro.core.campaign import Campaign, PathSpec
from repro.fluid import run_path_fluid, run_scenario_fluid
from repro.fluid.flows import BbrFlow
from repro.qa.scenario import FlowSpec, Scenario
from repro.store.fingerprint import canonical_json

# Campaign(n_paths=4, seed=7, duration=8.0, backend="fluid",
# fq_fraction=0.3), all PathResults, at commit d5415a3.
PARENT_OUTCOME_FINGERPRINT = (
    "34164fbea7330546368b8311ef9672a2060f197b7f6ccb49a16a4e94c2465e3d")


def test_bbr_window_max_matches_brute_force():
    rng = random.Random(15)
    for case in range(200):
        base_rtt = rng.choice((0.002, 0.02, 0.1, 0.2))
        window = max(10.0 * base_rtt, 1.0)
        flow = BbrFlow("f", base_rtt)
        samples = []
        now = 0.0
        for _ in range(rng.randrange(1, 400)):
            # Coarse values force ties; steps of exactly the window
            # length put a sample on the expiry edge (it must stay).
            step = rng.choice((0.005, 0.005, 0.005, 0.25, window, 3.0))
            now += step
            delivered = float(rng.randrange(0, 6)) * 1e5
            samples.append((now, delivered))
            flow._update_bw(now, delivered)
            expect = max(v for t, v in samples if not t < now - window)
            assert flow._bw == expect, (case, now, samples[-5:])


def _leaves(value, path="result"):
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _leaves(getattr(value, field.name),
                               f"{path}.{field.name}")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def _assert_builtin_numbers(value):
    for path, leaf in _leaves(value):
        assert type(leaf) in (int, float, bool, str, type(None)), \
            f"{path} is {type(leaf).__module__}.{type(leaf).__name__}"


def test_path_result_holds_only_builtin_numbers():
    for cross, qdisc, medium in (("reno", "droptail", "queue"),
                                 ("poisson", "fq", "queue"),
                                 ("bbr", "droptail", "csma-3")):
        result = run_path_fluid(
            PathSpec(rate_mbps=20.0, rtt_ms=20.0, qdisc=qdisc,
                     cross_traffic=cross, seed=5, medium=medium),
            duration=8.0)
        assert result.report.readings
        _assert_builtin_numbers(result)


def test_scenario_outcome_holds_only_builtin_numbers():
    flows = tuple(FlowSpec(cca=cca, start=start, ecn=(cca == "dctcp"))
                  for cca, start in (("dctcp", 0.0), ("bbr", 0.5),
                                     ("cbr", 0.0)))
    scenarios = [
        Scenario(family="flows", rate_mbps=8.0, rtt_ms=20.0, qdisc=qdisc,
                 duration=3.0, seed=9, flows=flows, cross_traffic="poisson",
                 backend="fluid", timing_jitter=0.15, medium=medium)
        for qdisc, medium in (("red", "queue"), ("fq", "queue"),
                              ("policer", "queue"),
                              ("droptail", "csma-4-prio"))]
    scenarios.append(Scenario(
        family="probe", rate_mbps=20.0, rtt_ms=20.0, qdisc="droptail",
        duration=12.0, seed=9, cross_traffic="video", backend="fluid"))
    for scenario in scenarios:
        outcome = run_scenario_fluid(scenario)
        _assert_builtin_numbers([outcome.delivered, outcome.qdisc_stats,
                                 outcome.probe, outcome.events_processed,
                                 outcome.clock])


def test_campaign_outcome_fingerprint_matches_parent():
    result = Campaign(n_paths=4, seed=7, duration=8.0, backend="fluid",
                      fq_fraction=0.3).run(workers=1, store=None)
    # The pin is salted with a fixed string, not CODE_VERSION, so a
    # version bump does not move it.
    material = ("fluid-golden\x00campaign-outcome\x00"
                + canonical_json(result.results))
    assert hashlib.sha256(material.encode()).hexdigest() \
        == PARENT_OUTCOME_FINGERPRINT

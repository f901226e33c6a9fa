"""The shared-medium subsystem: axis grammar, Bianchi's closed form,
and the slotted CSMA/CA DES validated against it (satellite: the
Bianchi validation tests and the medium-state invariant checker)."""

import pytest

from repro.errors import ConfigError
from repro.medium import (ACCESS_CLASSES, MEDIUM_DEFAULT, MediumSpec,
                          parse_medium)
from repro.medium.bianchi import (airtime_shares, expected_service_time,
                                  saturation_throughput,
                                  transmit_probabilities)
from repro.medium.config import MacClass, medium_names
from repro.obs import capture
from repro.obs.bus import EventKind, TraceEvent
from repro.obs.invariants import MediumChecker, check_trace
from repro.sim.engine import Simulator
from repro.sim.medium import MediumLink
from repro.sim.packet import Packet

BEST_EFFORT = ACCESS_CLASSES["best_effort"]
VOICE = ACCESS_CLASSES["voice"]


# -- the axis grammar ------------------------------------------------------

def test_parse_medium_grammar():
    assert parse_medium("queue") is None
    spec = parse_medium("csma-4")
    assert spec == MediumSpec(n_stations=4, priority="uniform")
    assert spec.name() == "csma-4"
    prio = parse_medium("csma-8-prio")
    assert prio == MediumSpec(n_stations=8, priority="mixed")
    assert prio.name() == "csma-8-prio"
    for bad in ("csma-1", "csma-65", "csma-", "tdma-4", "csma-4-voice",
                "CSMA-4", ""):
        with pytest.raises(ConfigError):
            parse_medium(bad)


def test_station_class_layout():
    uniform = parse_medium("csma-4")
    assert all(uniform.station_class(i) is BEST_EFFORT for i in range(4))
    mixed = parse_medium("csma-4-prio")
    assert mixed.station_class(0) is BEST_EFFORT
    assert mixed.station_class(1) is VOICE
    assert mixed.station_class(2) is BEST_EFFORT
    assert mixed.station_class(3) is VOICE


def test_medium_names_sweep():
    names = medium_names()
    assert names == ("queue", "csma-2", "csma-4", "csma-8", "csma-2-prio",
                     "csma-4-prio", "csma-8-prio")
    for name in names:
        parse_medium(name)  # every sweep value is parseable


def test_mac_class_validation():
    with pytest.raises(ConfigError):
        MacClass("bad", aifsn=0, cw_min=7, cw_max=15)
    with pytest.raises(ConfigError):
        MacClass("bad", aifsn=2, cw_min=31, cw_max=15)
    with pytest.raises(ConfigError):
        MediumSpec(n_stations=1)
    with pytest.raises(ConfigError):
        MediumSpec(n_stations=4, priority="upside_down")


# -- Bianchi's closed form -------------------------------------------------

def test_bianchi_fixed_point_properties():
    for n in (2, 5, 10, 20):
        taus = transmit_probabilities([BEST_EFFORT] * n)
        assert len(taus) == n
        # Homogeneous stations share one tau, strictly inside (0, 1),
        # decreasing in n (more contention -> wider windows).
        assert max(taus) - min(taus) < 1e-9
        assert 0.0 < taus[0] < 1.0
    tau2 = transmit_probabilities([BEST_EFFORT] * 2)[0]
    tau20 = transmit_probabilities([BEST_EFFORT] * 20)[0]
    assert tau20 < tau2


def test_bianchi_efficiency_below_one_and_declines_past_optimum():
    payload_time = 1500 / 2.5e6  # 1500 B at 20 Mbit/s
    small = sum(airtime_shares([BEST_EFFORT] * 5, payload_time))
    large = sum(airtime_shares([BEST_EFFORT] * 50, payload_time))
    assert 0.0 < large < small < 1.0


def test_bianchi_priority_classes_split_airtime_unevenly():
    payload_time = 1500 / 2.5e6
    shares = airtime_shares([BEST_EFFORT, VOICE], payload_time)
    # The tight voice window wins far more transmission opportunities.
    assert shares[1] > 2.0 * shares[0]


def test_bianchi_service_time_is_inverse_success_rate():
    payload_time = 1500 / 2.5e6
    classes = [BEST_EFFORT] * 5
    service = expected_service_time(classes, payload_time, station=0)
    shares = airtime_shares(classes, payload_time)
    # share = payload_time / service, by the renewal argument.
    assert shares[0] == pytest.approx(payload_time / service, rel=1e-9)


def test_bianchi_input_validation():
    with pytest.raises(ConfigError):
        transmit_probabilities([])
    with pytest.raises(ConfigError):
        airtime_shares([BEST_EFFORT], -1.0)
    with pytest.raises(ConfigError):
        saturation_throughput(0, 2.5e6, 1500, BEST_EFFORT)
    with pytest.raises(ConfigError):
        saturation_throughput(2, 0.0, 1500, BEST_EFFORT)


# -- the DES against the closed form --------------------------------------

RATE = 2.5e6          # 20 Mbit/s in bytes/second
PACKET_SIZE = 1500


def _saturated_medium(n: int, duration: float, seed: int = 7,
                      medium: str | None = None):
    """Run ``n`` always-backlogged stations and return the link."""
    sim = Simulator()
    spec = parse_medium(medium or f"csma-{n}")
    link = MediumLink(sim, RATE, spec, 0.0, seed=seed)
    # Refill on delivery so every station stays saturated: classic
    # Bianchi conditions without a transport loop in the way.
    link.add_tap(lambda pkt, now: link.send(Packet(pkt.flow_id,
                                                   size=PACKET_SIZE)))
    for i in range(n):
        for _ in range(10):
            link.send(Packet(f"f{i}", size=PACKET_SIZE))
    sim.run(until=duration)
    return link


@pytest.mark.parametrize("n", (2, 5, 10))
def test_medium_link_matches_bianchi_saturation(n):
    # The satellite acceptance gate: slotted DES goodput within 5% of
    # Bianchi's renewal-cycle closed form at matched constants.
    duration = 10.0
    link = _saturated_medium(n, duration)
    measured = link.delivered_bytes / duration
    predicted = saturation_throughput(n, RATE, PACKET_SIZE, BEST_EFFORT)
    assert measured == pytest.approx(predicted, rel=0.05)
    # And the shares are near-fair across homogeneous stations.
    shares = [link.flow_bytes(f"f{i}") / link.delivered_bytes
              for i in range(n)]
    assert sum(shares) == pytest.approx(1.0)
    assert max(shares) < 2.5 * min(shares)


def test_medium_link_collisions_scale_with_stations():
    few = _saturated_medium(2, 5.0)
    many = _saturated_medium(10, 5.0)
    assert few.collisions < many.collisions
    assert many.collisions > 0


def test_medium_link_priority_mix_favors_voice():
    link = _saturated_medium(4, 5.0, medium="csma-4-prio")
    voice = link.flow_bytes("f1") + link.flow_bytes("f3")
    best_effort = link.flow_bytes("f0") + link.flow_bytes("f2")
    assert voice > 2.0 * best_effort


def test_medium_link_is_deterministic_and_seed_sensitive():
    a = _saturated_medium(3, 3.0, seed=7)
    b = _saturated_medium(3, 3.0, seed=7)
    c = _saturated_medium(3, 3.0, seed=8)
    per_flow = lambda link: [link.flow_bytes(f"f{i}") for i in range(3)]
    assert per_flow(a) == per_flow(b)
    assert (per_flow(a), a.collisions) != (per_flow(c), c.collisions)


def test_medium_link_rejects_bad_rate():
    sim = Simulator()
    with pytest.raises(ConfigError):
        MediumLink(sim, 0.0, parse_medium("csma-2"), 0.0)


# -- golden trace (satellite: 3-station medium-state regression) ----------

#: Pinned digest for the 3-station saturated scenario below.  If a
#: deliberate MAC change moves these numbers, re-pin them in the same
#: commit and say why in the commit message.
GOLDEN_DIGEST = {
    "delivered_packets": 3319,
    "delivered_bytes": 4978500,
    "collisions": 196,
    "txops": 3319,
    "txop_events": 3319,
    "collision_events": 394,
    "backoff_events": 3713,
}


def test_three_station_golden_trace():
    with capture() as trace:
        link = _saturated_medium(3, 3.0, seed=7)
    counts = trace.counts_by_kind()
    digest = {
        "delivered_packets": counts.get(EventKind.DELIVER, 0),
        "delivered_bytes": link.delivered_bytes,
        "collisions": link.collisions,
        "txops": link.txops,
        "txop_events": counts.get(EventKind.MEDIUM_TXOP, 0),
        "collision_events": counts.get(EventKind.MEDIUM_COLLISION, 0),
        "backoff_events": counts.get(EventKind.MEDIUM_BACKOFF, 0),
    }
    assert digest == GOLDEN_DIGEST
    # Every successful txop emits exactly one event; every collision
    # emits one per collider (>= 2).
    assert digest["txop_events"] == digest["txops"]
    assert digest["collision_events"] >= 2 * digest["collisions"]
    # The trace is invariant-clean, including the medium-state checker.
    events = [e for e in trace.events]
    assert check_trace(events, qdiscs=link.station_qdiscs) == []


# -- the medium-state invariant checker ------------------------------------

def _txop(t, duration, src="medium:m"):
    return TraceEvent(t, EventKind.MEDIUM_TXOP, src, "f0", 1500.0,
                      meta={"station": 0, "duration": duration})


def _collision(t, duration, station=0, src="medium:m"):
    return TraceEvent(t, EventKind.MEDIUM_COLLISION, src, "f0", 1500.0,
                      meta={"station": station, "duration": duration,
                            "colliders": 2})


def _violations(events):
    checker = MediumChecker()
    for event in events:
        checker.observe(event)
    checker.finalize()
    return checker.violations


def test_medium_checker_accepts_disjoint_txops():
    assert _violations([_txop(0.0, 0.01), _txop(0.011, 0.01)]) == []


def test_medium_checker_flags_overlapping_txops():
    violations = _violations([_txop(0.0, 0.02), _txop(0.01, 0.02)])
    assert violations
    assert "overlapping" in violations[0].message


def test_medium_checker_flags_airtime_over_window():
    # A double-grant charges both raw durations into the same 1s
    # window (1.6s of airtime): over-granted, on top of the overlap.
    violations = _violations([_txop(0.0, 0.8), _txop(0.3, 0.8)])
    assert any("airtime" in v.message for v in violations)
    # Disjoint txops filling the window exactly stay legal.
    assert _violations([_txop(0.0, 0.5), _txop(0.5, 0.5)]) == []


def test_medium_checker_charges_collisions_once():
    # One collision emits an event per collider over the same airtime;
    # union-clamping must charge it once, not per collider.
    events = [_collision(0.0, 0.6, station=0),
              _collision(0.0, 0.6, station=1)]
    assert _violations(events) == []


def test_medium_checker_flags_negative_duration():
    violations = _violations([_txop(0.0, -0.01)])
    assert violations
    assert "negative" in violations[0].message


def test_medium_checker_resets_on_sim_start():
    events = [_txop(0.0, 0.02),
              TraceEvent(0.0, EventKind.SIM_START, "sim"),
              _txop(0.01, 0.02)]  # would overlap without the reset
    assert _violations(events) == []

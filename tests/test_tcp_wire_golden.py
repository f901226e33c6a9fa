"""Golden pin of what the transport puts on the wire.

``path_golden.json`` pins verdict-level floats and ``test_obs_golden``
pins per-kind event counts; neither would notice a segment sent one
event earlier, a SACK block missing from one ACK or a retransmission
of the wrong hole, as long as the totals came out.  This file pins the
wire itself for five short deterministic runs that between them cover
SACK recovery, pacing, RTO go-back-N, a CSMA/CA bottleneck and a
finite receiver-limited transfer:

* per link (the bottleneck, ``fwd``, and the ACK link, ``rev``), the
  SHA-256 over its every delivery, in order, as ``(repr(now), link,
  flow_id, kind, seq, end_seq, ack, sack_blocks, retransmit)``;
* ``sim.events_processed``;
* per sender: ``fast_retransmits``, ``timeouts``, ``dupacks_total``,
  ``delivered`` and the final :class:`TcpInfoSnapshot`, floats by
  ``float.__repr__``.

It was generated on the commit *before* the per-packet path of
``tcp/endpoint.py``, ``sim/link.py``, ``qdisc/fifo.py`` and the engine
loop was rewritten for fewer Python calls, so it is the proof that the
rewrite scheduled the same events at the same times in the same order.
It also passed unregenerated when the RTO timer became a lazy deadline
moved by ``Simulator.reschedule`` instead of being cancelled and
re-scheduled on every ACK.  When a link began to apply its
transmission ends lazily (one event per packet per hop), each link's
deliveries stayed bit-identical and only ``events_processed`` moved;
the digests became per link then, because a link's taps now fire when
it is next touched, so the two links' taps interleave differently in
traced and untraced runs while each link's own order is fixed.
Regenerate (deliberately, explaining why in the diff) with::

    PYTHONPATH=src python tests/test_tcp_wire_golden.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.cca import BbrCca, RenoCca
from repro.medium.config import parse_medium
from repro.qdisc.fifo import DropTailQueue
from repro.sim import Simulator, dumbbell
from repro.sim.network import medium_dumbbell
from repro.tcp import Connection
from repro.units import mbps, ms

from .helpers import advertise_window, lossy_dumbbell

GOLDEN_PATH = Path(__file__).parent / "data" / "tcp_wire_golden.json"


def _reno_pair(sim):
    path = dumbbell(sim, mbps(10), ms(40), buffer_multiplier=1.0)
    conns = [Connection(sim, path, f"reno-{i}", RenoCca()) for i in range(2)]
    for conn in conns:
        conn.sender.set_infinite_backlog()
    return path, conns, 4.0


def _bbr_paced(sim):
    path = dumbbell(sim, mbps(10), ms(40), buffer_multiplier=1.0)
    conn = Connection(sim, path, "bbr", BbrCca())
    conn.sender.set_infinite_backlog()
    return path, [conn], 3.0


def _reno_lossy(sim):
    # 12% random loss after the bottleneck: retransmissions are lost
    # too, which is what forces the retransmission timer.
    path = lossy_dumbbell(sim, mbps(10), ms(40), 0.12, seed=7)
    conn = Connection(sim, path, "lossy", RenoCca())
    conn.sender.set_infinite_backlog()
    return path, [conn], 6.0


def _reno_csma(sim):
    path = medium_dumbbell(
        sim, mbps(20), ms(20), parse_medium("csma-5"),
        qdisc_factory=lambda: DropTailQueue(limit_packets=40), seed=3)
    conn = Connection(sim, path, "wifi", RenoCca())
    conn.sender.set_infinite_backlog()
    return path, [conn], 3.0


def _reno_rwnd_finite(sim):
    # Two application writes, a small receive window and a close: the
    # write/close/rwnd side of the sender the backlogged runs never use.
    path = dumbbell(sim, mbps(10), ms(40), buffer_multiplier=1.0)
    conn = Connection(sim, path, "finite", RenoCca())
    advertise_window(conn, 20_000)
    conn.sender.write(150_000)
    sim.schedule(1.0, lambda: (conn.sender.write(90_000),
                               conn.sender.close()))
    return path, [conn], 3.0


RUNS = {
    "reno-pair-droptail": _reno_pair,
    "bbr-paced": _bbr_paced,
    "reno-lossbox-rto": _reno_lossy,
    "reno-csma5": _reno_csma,
    "reno-rwnd-finite": _reno_rwnd_finite,
}


def _pin(value):
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, dict):
        return {key: _pin(item) for key, item in value.items()}
    return value


def capture_run(name: str) -> dict:
    sim = Simulator()
    digests = {"fwd": hashlib.sha256(), "rev": hashlib.sha256()}
    deliveries = [0]

    def tap_for(link_name):
        digest = digests[link_name]

        def tap(packet, now):
            deliveries[0] += 1
            digest.update(repr((
                repr(now), link_name, packet.flow_id, packet.kind.value,
                packet.seq, packet.end_seq, packet.ack, packet.sack_blocks,
                packet.retransmit)).encode())
        return tap

    # The builders start their flows, but a send only enqueues and
    # starts a serialization: nothing is delivered before run().
    path, conns, until = RUNS[name](sim)
    path.bottleneck.add_tap(tap_for("fwd"))
    path.reverse_entry.add_tap(tap_for("rev"))
    sim.run(until=until)
    senders = {}
    for conn in conns:
        tx = conn.sender
        senders[conn.flow_id] = {
            "fast_retransmits": tx.fast_retransmits,
            "timeouts": tx.timeouts,
            "dupacks_total": tx.dupacks_total,
            "delivered": tx.delivered,
            "tcp_info": _pin(dataclasses.asdict(tx.snapshot())),
        }
    return {"sha256": {name: digest.hexdigest()
                       for name, digest in digests.items()},
            "deliveries": deliveries[0],
            "events_processed": sim.events_processed, "senders": senders}


def capture() -> dict:
    return {name: capture_run(name) for name in RUNS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_names_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_wire_identical(golden, name):
    assert capture_run(name) == golden[name]


def test_runs_reach_what_they_are_for(golden):
    # A golden that pinned a run with no recovery in it would prove
    # nothing about recovery.
    pair = golden["reno-pair-droptail"]["senders"]
    assert all(s["fast_retransmits"] > 0 for s in pair.values())
    assert all(s["tcp_info"]["retransmits"] > 0 for s in pair.values())
    assert golden["reno-lossbox-rto"]["senders"]["lossy"]["timeouts"] >= 1
    finite = golden["reno-rwnd-finite"]["senders"]["finite"]
    assert finite["tcp_info"]["bytes_acked"] == 240_000
    assert float(finite["tcp_info"]["rwnd_limited_us"]) > 0
    assert golden["bbr-paced"]["senders"]["bbr"]["delivered"] > 0
    assert golden["reno-csma5"]["senders"]["wifi"]["delivered"] > 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)

"""Unit tests for the packet model."""

from repro.cca import RenoCca
from repro.sim import Simulator, dumbbell
from repro.sim.packet import Packet, PacketKind, make_ack
from repro.tcp import Connection
from repro.units import ACK_SIZE, mbps, ms

from .helpers import make_data


def test_data_packet_payload():
    p = make_data("f1", seq=1000, payload=1448)
    assert p.kind is PacketKind.DATA
    assert p.seq == 1000
    assert p.end_seq == 2448
    assert p.payload == 1448
    assert p.size == 1500


def test_ack_packet_has_zero_payload():
    p = make_ack("f1", ack=5000)
    assert p.kind is PacketKind.ACK
    assert p.ack == 5000
    assert p.payload == 0
    assert p.size == ACK_SIZE


def test_packet_ids_are_unique():
    a = make_data("f1", seq=0, payload=100)
    b = make_data("f1", seq=0, payload=100)
    assert a.packet_id != b.packet_id


def test_user_id_defaults_to_flow_id():
    p = make_data("flow-7", seq=0, payload=10)
    assert p.user_id == "flow-7"


def test_user_id_override():
    p = make_data("flow-7", seq=0, payload=10, user_id="alice")
    assert p.user_id == "alice"


def test_explicit_wire_size():
    p = make_data("f", seq=0, payload=100, size=1500)
    assert p.size == 1500
    assert p.payload == 100


def test_ecn_flags_default_off():
    p = make_data("f", seq=0, payload=100)
    assert not p.ecn_capable
    assert not p.ecn_marked


def test_repr_mentions_flow(capsys):
    p = make_data("myflow", seq=0, payload=10)
    assert "myflow" in repr(p)


def test_a_tap_may_keep_what_it_is_shown():
    # No consumer reuses a packet object: what a tap retained during
    # the run is, afterwards, still the packet it was shown.
    sim = Simulator()
    path = dumbbell(sim, mbps(10), ms(20))
    kept = []
    path.bottleneck.add_tap(lambda packet, now: kept.append(
        (packet, packet.packet_id, packet.flow_id, packet.seq, packet.size)))
    for flow_id in ("a", "b"):
        Connection(sim, path, flow_id, RenoCca()) \
            .sender.set_infinite_backlog()
    sim.run(until=2.0)
    assert len(kept) > 1000
    ids = [packet.packet_id for packet, *_ in kept]
    assert 0 not in ids and len(set(ids)) == len(ids)
    for packet, *shown in kept:
        assert [packet.packet_id, packet.flow_id, packet.seq,
                packet.size] == shown

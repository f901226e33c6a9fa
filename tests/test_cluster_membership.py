"""Membership: cluster-spec parsing and liveness with a fake clock."""

import pytest

from repro.cluster import DEFAULT_PORT, Membership, parse_cluster
from repro.errors import ConfigError


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestParseCluster:
    def test_hosts_ports_and_defaults(self):
        assert parse_cluster("a:8765,b") == [("a", 8765),
                                            ("b", DEFAULT_PORT)]

    def test_sequence_input_and_whitespace(self):
        assert parse_cluster([" a:1 ", "b:2"]) == [("a", 1), ("b", 2)]

    def test_duplicates_collapse(self):
        assert parse_cluster("a:1,a:1,b:2") == [("a", 1), ("b", 2)]

    @pytest.mark.parametrize("spec", ["", ",,", "a:notaport", ":8765",
                                      "a:0", "a:70000"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ConfigError):
            parse_cluster(spec)


class TestLiveness:
    def _membership(self, results):
        """``results`` maps node name -> list of probe outcomes
        (dict = healthy, Exception = failure), consumed in order."""
        clock = FakeClock()

        def probe(node):
            outcome = results[node.name].pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        membership = Membership(parse_cluster(list(results)),
                                probe=probe, clock=clock)
        return membership, clock

    def test_probe_marks_up_and_down(self):
        membership, clock = self._membership({
            "a:1": [{"status": "ok"}],
            "b:2": [ConnectionError("nope")],
        })
        membership.tick()
        assert [n.name for n in membership.live()] == ["a:1"]
        states = {r["node"]: r["state"] for r in membership.status()}
        assert states == {"a:1": "up", "b:2": "down"}

    def test_backoff_doubles_and_caps(self):
        membership, clock = self._membership({
            "a:1": [OSError()] * 8,
        })
        node = membership.nodes[0]
        delays = []
        for _ in range(8):
            node.next_probe = clock()  # force an immediate probe
            membership.tick()
            delays.append(node.next_probe - clock())
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]

    def test_success_resets_backoff(self):
        membership, clock = self._membership({
            "a:1": [OSError(), OSError(), {"status": "ok"}, OSError()],
        })
        node = membership.nodes[0]
        for _ in range(2):
            node.next_probe = clock()
            membership.tick()
        assert node.failures == 2
        node.next_probe = clock()
        membership.tick()
        assert node.failures == 0 and node.up
        node.next_probe = clock()
        membership.tick()
        assert node.next_probe - clock() == 0.5, \
            "post-recovery failure restarts the schedule"

    def test_draining_node_is_not_live(self):
        membership, clock = self._membership({
            "a:1": [{"status": "draining"}],
        })
        membership.tick()
        assert membership.nodes[0].up
        assert membership.live() == []
        assert membership.status()[0]["state"] == "draining"

    def test_probe_respects_interval(self):
        calls = []

        def probe(node):
            calls.append(clock())
            return {"status": "ok"}

        clock = FakeClock()
        membership = Membership([("a", 1)], probe=probe, clock=clock)
        membership.tick()
        clock.advance(1.0)
        membership.tick()  # within the interval: no probe
        clock.advance(4.5)
        membership.tick()
        assert calls == [0.0, 5.5]

    def test_empty_node_list_rejected(self):
        with pytest.raises(ConfigError):
            Membership([])

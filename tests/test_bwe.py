"""Tests for BwE-style hierarchical bandwidth allocation."""

import pytest
from hypothesis import given, strategies as st

from repro.alloc import (BweController, DemandNode, allocate,
                         weighted_water_fill)
from repro.errors import ConfigError
from repro.sim import Simulator


class TestWaterFill:
    def test_equal_weights_equal_split(self):
        alloc = weighted_water_fill([10, 10], [1, 1], 10)
        assert alloc == [5, 5]

    def test_weights_skew_split(self):
        alloc = weighted_water_fill([10, 10], [2, 1], 9)
        assert alloc == pytest.approx([6, 3])

    def test_small_demand_satisfied_first(self):
        alloc = weighted_water_fill([1, 100], [1, 1], 11)
        assert alloc == pytest.approx([1, 10])

    def test_zero_demand_gets_zero(self):
        alloc = weighted_water_fill([0, 5], [1, 1], 10)
        assert alloc == [0, 5]

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ConfigError):
            weighted_water_fill([1], [1, 2], 10)

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0.1, max_value=5)), min_size=1, max_size=8),
        st.floats(min_value=0, max_value=400))
    def test_property_feasible_and_demand_bounded(self, pairs, capacity):
        demands = [d for d, _ in pairs]
        weights = [w for _, w in pairs]
        alloc = weighted_water_fill(demands, weights, capacity)
        assert sum(alloc) <= capacity + 1e-6
        for a, d in zip(alloc, demands):
            assert a <= d + 1e-6


class TestHierarchy:
    def build(self):
        return DemandNode("root", children=[
            DemandNode("serving", weight=2.0, children=[
                DemandNode("s1", demand=60.0),
                DemandNode("s2", demand=60.0),
            ]),
            DemandNode("batch", weight=1.0, children=[
                DemandNode("b1", demand=60.0),
                DemandNode("b2", demand=10.0),
            ]),
        ])

    def test_weighted_group_split(self):
        out = allocate(self.build(), capacity=90.0)
        assert out["serving"] == pytest.approx(60.0)
        assert out["batch"] == pytest.approx(30.0)

    def test_leaves_split_within_group(self):
        out = allocate(self.build(), capacity=90.0)
        assert out["s1"] == pytest.approx(30.0)
        assert out["s2"] == pytest.approx(30.0)
        # b2 only wants 10; b1 takes the rest of batch's 30.
        assert out["b2"] == pytest.approx(10.0)
        assert out["b1"] == pytest.approx(20.0)

    def test_unused_share_redistributed(self):
        root = DemandNode("root", children=[
            DemandNode("idle", weight=1.0, children=[
                DemandNode("i1", demand=5.0)]),
            DemandNode("busy", weight=1.0, children=[
                DemandNode("u1", demand=100.0)]),
        ])
        out = allocate(root, capacity=60.0)
        assert out["i1"] == pytest.approx(5.0)
        assert out["u1"] == pytest.approx(55.0)

    def test_invalid_nodes_rejected(self):
        with pytest.raises(ConfigError):
            DemandNode("bad", weight=0.0)
        with pytest.raises(ConfigError):
            DemandNode("bad", demand=-1.0)


class TestController:
    def test_pushes_rates_periodically(self):
        sim = Simulator()
        controller = BweController(sim, capacity=100.0, period=1.0)
        rates = {"a": 0.0, "b": 0.0}
        controller.register("a", demand_fn=lambda: 80.0,
                            enforce_fn=lambda r: rates.__setitem__("a", r))
        controller.register("b", demand_fn=lambda: 80.0,
                            enforce_fn=lambda r: rates.__setitem__("b", r))
        controller.start()
        sim.run(until=0.5)
        assert rates["a"] == pytest.approx(50.0)
        assert rates["b"] == pytest.approx(50.0)

    def test_reacts_to_demand_changes(self):
        sim = Simulator()
        controller = BweController(sim, capacity=100.0, period=1.0)
        demand = {"a": 80.0}
        rates = {}
        controller.register("a", demand_fn=lambda: demand["a"],
                            enforce_fn=lambda r: rates.__setitem__("a", r))
        controller.register("b", demand_fn=lambda: 80.0,
                            enforce_fn=lambda r: rates.__setitem__("b", r))
        controller.start()
        sim.run(until=0.5)
        demand["a"] = 10.0
        sim.run(until=1.5)
        assert rates["a"] == pytest.approx(10.0)
        assert rates["b"] == pytest.approx(80.0)

    def test_weights_respected_across_groups(self):
        sim = Simulator()
        controller = BweController(sim, capacity=90.0, period=1.0)
        rates = {}
        controller.register("s", demand_fn=lambda: 100.0, group="serving",
                            enforce_fn=lambda r: rates.__setitem__("s", r))
        controller.register("b", demand_fn=lambda: 100.0, group="batch",
                            enforce_fn=lambda r: rates.__setitem__("b", r))
        controller.start()
        sim.run(until=0.5)
        # Groups have default weight 1 each: each gets 45.
        assert rates["s"] == pytest.approx(45.0)
        assert rates["b"] == pytest.approx(45.0)

    def test_stop_halts_ticks(self):
        sim = Simulator()
        controller = BweController(sim, capacity=10.0, period=1.0)
        calls = []
        controller.register("a", demand_fn=lambda: calls.append(1) or 5.0,
                            enforce_fn=lambda r: None)
        controller.start()
        sim.run(until=2.5)
        controller.stop()
        n = len(calls)
        sim.run(until=6.0)
        assert len(calls) == n

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            BweController(Simulator(), capacity=0.0)

"""A late axis is declared in one place: ``repro.core.axes.AXES``.

These tests add throwaway axes to that table -- and touch nothing
else -- then check that every surface that carries axes picked them
up: scenario dicts and labels, path and campaign fingerprints, the
serve and cluster param handling, and the CLI flags.  They also pin
the one omission rule (``value == default``, never truthiness; PR 10
shipped a truthy-``priority`` bug of exactly that class).
"""

from dataclasses import dataclass

import pytest

from repro.cli import build_parser
from repro.cluster import run_clustered_campaign
from repro.core.axes import AXES, Axis, drop_defaults
from repro.core.campaign import Campaign, PathSpec, _spec_config
from repro.errors import ConfigError
from repro.qa.scenario import Scenario, scenario_fingerprint
from repro.serve import bind_params
from repro.store import ArtifactStore


def _non_negative(value):
    if value < 0:
        raise ConfigError(f"toy must be >= 0: {value}")


#: A run-level axis (one value per campaign, like ``backend``) whose
#: default is truthy and whose other values include a falsy one, and a
#: path-level axis (a PathSpec field, like ``medium``).
TOY = Axis("toy", "run", 1, tag="toy", check=_non_negative,
           help="a throwaway run-level axis")
TOY_HOP = Axis("toy_hop", "path", "direct", tag="hop",
               choices=("direct", "relay"),
               help="a throwaway path-level axis")


@pytest.fixture
def toy_axes(monkeypatch):
    monkeypatch.setitem(AXES, TOY.name, TOY)
    monkeypatch.setitem(AXES, TOY_HOP.name, TOY_HOP)


@dataclass(frozen=True)
class ToyScenario(Scenario):
    toy: int = TOY.default
    toy_hop: str = TOY_HOP.default


@dataclass(frozen=True)
class ToyPathSpec(PathSpec):
    toy_hop: str = TOY_HOP.default


_SCENARIO = dict(family="probe", rate_mbps=20.0, rtt_ms=20.0,
                 qdisc="droptail", duration=10.0, seed=7,
                 cross_traffic="reno")
_PATH = dict(rate_mbps=20.0, rtt_ms=20.0, qdisc="droptail",
             cross_traffic="reno", seed=7)


class TestToyAxis:
    def test_scenario_dict_label_and_fingerprint(self, toy_axes):
        plain = Scenario(**_SCENARIO)
        at_default = ToyScenario(**_SCENARIO)
        assert at_default.to_dict() == plain.to_dict()
        assert at_default.label() == plain.label()
        assert scenario_fingerprint(at_default) \
            == scenario_fingerprint(plain)

        moved = ToyScenario(**_SCENARIO, toy=0, toy_hop="relay")
        doc = moved.to_dict()
        assert doc["toy"] == 0 and doc["toy_hop"] == "relay"
        assert moved.label().endswith(" toy=0 hop=relay")
        assert scenario_fingerprint(moved) != scenario_fingerprint(plain)
        assert ToyScenario.from_dict(doc) == moved

    def test_scenario_validates(self, toy_axes):
        with pytest.raises(ConfigError):
            ToyScenario(**_SCENARIO, toy=-1)
        with pytest.raises(ConfigError):
            ToyScenario(**_SCENARIO, toy_hop="teleport")
        with pytest.raises(ConfigError):
            ToyScenario(**_SCENARIO, toy="1")

    def test_path_spec_config_and_key(self, toy_axes):
        campaign = Campaign(n_paths=1)
        plain = PathSpec(**_PATH)
        at_default = ToyPathSpec(**_PATH)
        assert _spec_config(at_default) == _spec_config(plain)
        assert campaign.path_key(at_default) == campaign.path_key(plain)

        moved = ToyPathSpec(**_PATH, toy_hop="relay")
        assert _spec_config(moved)["toy_hop"] == "relay"
        assert campaign.path_key(moved) != campaign.path_key(plain)
        with pytest.raises(ConfigError):
            ToyPathSpec(**_PATH, toy_hop="teleport")

    def test_campaign_fingerprints(self, toy_axes):
        plain = Campaign(n_paths=2, seed=1)
        at_default = Campaign(n_paths=2, seed=1, toy=TOY.default)
        assert at_default.fingerprint() == plain.fingerprint()
        spec = plain.specs[0]
        assert at_default.path_key(spec) == plain.path_key(spec)

        moved = Campaign(n_paths=2, seed=1, toy=0)
        assert moved.fingerprint() != plain.fingerprint()
        assert moved.path_key(spec) != plain.path_key(spec)
        assert moved.run_axes["toy"] == 0
        with pytest.raises(ConfigError):
            Campaign(n_paths=2, toy=-1)
        with pytest.raises(ConfigError):
            Campaign(n_paths=2, no_such_axis=1)

    def test_serve_params_validate_and_forward(self, toy_axes):
        campaign = Campaign(**bind_params("campaign",
                                          {"n_paths": 2, "toy": 3}))
        assert campaign.run_axes["toy"] == 3
        assert campaign.fingerprint() == Campaign(n_paths=2,
                                                  toy=3).fingerprint()
        for kind, more in (("campaign", {}), ("paths", {"indices": [1]})):
            params = {"n_paths": 2, "toy": 3, "toy_hop": "relay", **more}
            assert bind_params(kind, params) == params
            with pytest.raises(ConfigError):
                bind_params(kind, {**params, "toy": "3"})
            with pytest.raises(ConfigError):
                bind_params(kind, {**params, "toy": -1})
            with pytest.raises(ConfigError):
                bind_params(kind, {**params, "timing_jitter": 0.1})

    def test_cluster_shards_forward(self, toy_axes, tmp_path):
        class Dispatched(Exception):
            pass

        class Recorder:
            """Stands in for a Coordinator up to the first dispatch."""

            class membership:
                nodes = ("node",)

            def run(self, tasks):
                raise Dispatched(tasks)

        with pytest.raises(Dispatched) as caught:
            run_clustered_campaign(
                {"n_paths": 2, "duration": 5.0, "toy": 3,
                 "resume": True}, cluster=None,
                store=ArtifactStore(tmp_path), coordinator=Recorder())
        tasks = caught.value.args[0]
        assert tasks
        for task in tasks:
            assert task.kind == "paths"
            assert task.params["toy"] == 3
            assert "resume" not in task.params
            bind_params(task.kind, task.params)
        with pytest.raises(ConfigError, match="not_a_campaign_param"):
            run_clustered_campaign(
                {"n_paths": 2, "not_a_campaign_param": 1}, cluster=None,
                store=ArtifactStore(tmp_path), coordinator=Recorder())

    @pytest.mark.parametrize("command", ["run", "trace", "metrics"])
    def test_experiment_commands_take_the_flags(self, toy_axes, command):
        args = build_parser().parse_args(
            [command, "fig2", "--toy", "3", "--toy-hop", "relay"])
        assert args.toy == 3 and args.toy_hop == "relay"
        unset = build_parser().parse_args([command, "fig2"])
        assert unset.toy is None and unset.toy_hop is None

    def test_quicklook_takes_path_level_flags_only(self, toy_axes, capsys):
        args = build_parser().parse_args(["quicklook", "--toy-hop",
                                          "relay"])
        assert args.toy_hop == "relay"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quicklook", "--toy", "3"])
        capsys.readouterr()

    def test_flags_are_gone_with_the_declaration(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig2", "--toy", "3"])


#: (axis, value) pairs: each real axis at its default and off it, and
#: the toy axis at its truthy default and at a falsy other value.
_CASES = [("backend", "packet"), ("backend", "fluid"),
          ("timing_jitter", 0.0), ("timing_jitter", 0.1),
          ("medium", "queue"), ("medium", "csma-4"),
          ("toy", 1), ("toy", 0)]


@pytest.mark.parametrize("name,value", _CASES)
def test_omitted_iff_equal_to_default(toy_axes, name, value):
    at_default = value == AXES[name].default
    assert (name not in drop_defaults({name: value, "seed": 0})) \
        == at_default
    scenario = ToyScenario(**_SCENARIO, **{name: value})
    assert (name not in scenario.to_dict()) == at_default
    assert (f" {AXES[name].tag}=" not in scenario.label()) == at_default
    if AXES[name].level != "scenario":
        campaign = Campaign(n_paths=1, **{name: value})
        config = campaign._task_config(campaign.specs[0])
        assert (name not in config and name not in config["spec"]) \
            == at_default

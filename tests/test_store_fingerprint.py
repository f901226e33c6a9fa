"""Tests for deterministic config fingerprints (`repro.store.fingerprint`).

Satellite coverage from ISSUE 3: the same spec hashed in the parent
and in a fresh subprocess (different hash randomization) yields
identical digests; reordered dict params and float formatting do not
change the hash; bumping the code-version salt does.
"""

import functools
import hashlib
import os
import subprocess
import sys

import pytest

from repro.core.campaign import PathSpec
from repro.core.detector import ContentionDetector
from repro.errors import ConfigError
from repro.store import (CODE_VERSION, callable_config, canonical_json,
                         fingerprint)


def spec(**overrides):
    base = dict(rate_mbps=48.0, rtt_ms=50.0, qdisc="droptail",
                cross_traffic="reno", seed=7)
    base.update(overrides)
    return PathSpec(**base)


class TestCanonicalization:
    def test_dict_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": [2, 3]}) \
            == fingerprint({"b": [2, 3], "a": 1})

    def test_tuple_and_list_identical(self):
        assert fingerprint((1, 2, 3)) == fingerprint([1, 2, 3])

    def test_float_formatting_irrelevant(self):
        assert fingerprint(0.5) == fingerprint(float("0.50"))
        assert fingerprint({"x": 1e2}) == fingerprint({"x": 100.0})

    def test_int_and_float_distinct(self):
        # 1 and 1.0 compare equal in Python but canonical JSON keeps
        # the distinction -- a config switching types should re-run.
        assert canonical_json(1) != canonical_json(1.0)

    def test_dataclass_hashes_as_field_dict(self):
        s = spec()
        as_dict = {"rate_mbps": 48.0, "rtt_ms": 50.0,
                   "qdisc": "droptail", "cross_traffic": "reno",
                   "buffer_multiplier": 1.0, "seed": 7,
                   "medium": "queue"}
        assert fingerprint(s) == fingerprint(as_dict)

    def test_fingerprint_config_hook(self):
        a = ContentionDetector(threshold=2.0)
        b = ContentionDetector(threshold=2.0)
        c = ContentionDetector(threshold=3.0)
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(c)

    def test_sets_hash_order_free(self):
        assert fingerprint({"s": {3, 1, 2}}) == fingerprint({"s": {2, 3, 1}})

    def test_numpy_values_canonicalize(self):
        import numpy as np
        assert fingerprint(np.float64(0.5)) == fingerprint(0.5)
        assert fingerprint(np.array([1.0, 2.0])) == fingerprint([1.0, 2.0])

    def test_nan_rejected(self):
        with pytest.raises(ConfigError):
            fingerprint(float("nan"))

    def test_non_string_keys_rejected(self):
        with pytest.raises(ConfigError):
            fingerprint({1: "x"})

    def test_arbitrary_object_rejected(self):
        with pytest.raises(ConfigError):
            fingerprint(object())


class TestSaltAndKind:
    def test_kind_namespaces(self):
        assert fingerprint(1, kind="path") != fingerprint(1, kind="sweep")

    def test_salt_bump_invalidates(self):
        # CODE_VERSION salts the hashed material, so bumping it moves
        # every fingerprint.
        def digest(salt):
            material = f"{salt}\x00generic\x00{canonical_json({'x': 1})}"
            return hashlib.sha256(material.encode()).hexdigest()

        base = fingerprint({"x": 1})
        assert base == digest(CODE_VERSION)
        assert base != digest(CODE_VERSION + ".next")


class TestCrossProcessStability:
    """The same spec must hash identically in a worker subprocess."""

    def test_subprocess_digest_identical(self, tmp_path):
        parent = fingerprint(spec(), kind="path")
        code = (
            "from repro.store import fingerprint\n"
            "from repro.core.campaign import PathSpec\n"
            "s = PathSpec(rate_mbps=48.0, rtt_ms=50.0, qdisc='droptail',"
            " cross_traffic='reno', seed=7)\n"
            "print(fingerprint(s, kind='path'))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # A different hash seed proves the digest never depends on
        # Python's per-process hash randomization.
        env["PYTHONHASHSEED"] = "12345"
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, text=True,
            capture_output=True, check=True).stdout.strip()
        assert child == parent


class TestCallableConfig:
    def test_partial_parameters_distinguish(self):
        from repro.core.campaign import run_path
        a = callable_config(functools.partial(run_path, duration=5.0))
        b = callable_config(functools.partial(run_path, duration=9.0))
        assert a["qualname"] == b["qualname"] == "run_path"
        assert fingerprint(a) != fingerprint(b)

    def test_nested_partials_flatten(self):
        from repro.core.campaign import run_path
        inner = functools.partial(run_path, duration=5.0)
        outer = functools.partial(inner, capacity_hint=False)
        config = callable_config(outer)
        assert config["kwargs"] == {"duration": 5.0,
                                   "capacity_hint": False}

    def test_closures_rejected(self):
        def local(x):
            return x

        with pytest.raises(ConfigError):
            callable_config(local)

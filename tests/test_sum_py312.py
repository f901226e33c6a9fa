"""The byte goldens under Python 3.12's builtin ``sum()``, on any Python.

From 3.12, builtin ``sum()`` adds exact floats with Neumaier
compensation.  That is the one 3.12 change that can move this project's
bytes: ``np.sum``, ``math.fsum``, a ``+=`` loop and
:func:`repro.units.ordered_sum` give the same bits on both versions.
:func:`sum312` follows CPython 3.12's ``builtin_sum_impl`` path by path;
the tests below check it against results 3.12 gives, then patch
``builtins.sum`` with it and re-run the byte goldens serially.  A golden
that moves under the patch is a 3.12 bug: route that sum through
``ordered_sum``.

The patch reaches every ``sum`` looked up at call time.  A module that
bound ``sum`` at import would escape it; ``tests/test_builtin_sum.py``
flags any such name in the packages that feed results.
"""

import builtins
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cca.nimbus import NimbusCca

from . import (test_experiment_races_golden, test_fluid_golden,
               test_ndt_records_golden, test_obs_golden, test_path_golden,
               test_tcp_wire_golden)

_BUILTIN_SUM = builtins.sum


def _fits_c_long(value: int) -> bool:
    return -2**63 <= value < 2**63


def sum312(iterable, /, start=0):
    """CPython 3.12's builtin ``sum()``, in Python.

    Three paths, entered in order and never re-entered.  Exact ints
    (and bools) add in a C long while the start is an exact int and
    nothing overflows.  Exact floats add with Neumaier compensation,
    ints that fit a C long as plain ``(double)`` additions, and the
    compensation joins the total only if it is non-zero and finite.
    Anything else (a ``numpy.float64`` is a float subclass, not an exact
    float) ends the fast paths, and every later item is added with ``+``.
    """
    items = iter(iterable)
    result = start
    if type(result) is int and _fits_c_long(result):
        for item in items:
            if (type(item) in (int, bool) and _fits_c_long(item)
                    and _fits_c_long(result + item)):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _fits_c_long(item):
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


class TestShim:
    def test_known_312_results(self):
        assert sum312([0.1] * 10) == 1.0
        assert sum312([0.1, 0.2, 0.3]) == 0.6
        assert sum312([1e100, 1.0, -1e100, 1.0]) == 2.0
        # The compensation keeps a negative zero and an overflow.
        assert math.copysign(1.0, sum312([-0.0], -0.0)) == -1.0
        assert sum312([1e308, 1e308]) == math.inf
        assert math.isnan(sum312([math.inf, -math.inf]))

    def test_ints_and_starts(self):
        assert sum312([]) == 0 and type(sum312([])) is int
        assert sum312([True, 2, 3]) == 6
        assert sum312([2**70, 1]) == 2**70 + 1
        assert sum312([1.5, 2, 0.25]) == 3.75
        assert sum312([[1], [2]], []) == [1, 2]
        # Past a C long the int path ends, and with it compensation.
        assert sum312([2**64, -2**64, 0.1, 0.2]) == 0.1 + 0.2 != 0.3

    def test_a_float_subclass_ends_compensation(self):
        # Compensated up to the numpy scalar, plain left to right after.
        plain = math.fsum([0.1] * 5) + np.float64(0.1)
        for _ in range(4):
            plain = plain + 0.1
        mixed = sum312([0.1] * 5 + [np.float64(0.1)] + [0.1] * 4)
        assert type(mixed) is np.float64 and mixed == plain
        assert sum312([0.1] * 10) != plain

    @pytest.mark.skipif(sys.version_info < (3, 12),
                        reason="needs the 3.12 builtin to compare with")
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False), st.integers(),
                              st.booleans())))
    def test_equals_the_builtin_on_312(self, values):
        assert repr(sum312(values)) == repr(_BUILTIN_SUM(values))

    def test_the_patch_reaches_repro_modules(self, monkeypatch):
        calls = []

        def counting(iterable, /, start=0):
            calls.append(1)
            return sum312(iterable, start)

        monkeypatch.setattr(builtins, "sum", counting)
        cca = NimbusCca()
        assert cca._mean_rate([1448] * 8, 8) > 0
        assert calls


def _golden(module) -> dict:
    return json.loads(module.GOLDEN_PATH.read_text())


def _fluid():
    golden = _golden(test_fluid_golden)
    test_fluid_golden.test_paths_bit_identical(golden)
    test_fluid_golden.test_scenarios_bit_identical(golden)


def _path():
    golden = _golden(test_path_golden)
    test_path_golden.test_paths_bit_identical(golden)
    test_path_golden.test_scenarios_bit_identical(golden)
    test_path_golden.test_fingerprints_literal(golden)


def _wire():
    golden = _golden(test_tcp_wire_golden)
    for name in sorted(test_tcp_wire_golden.RUNS):
        test_tcp_wire_golden.test_wire_identical(golden, name)


def _ndt_records():
    golden = _golden(test_ndt_records_golden)
    for seed in test_ndt_records_golden.SEEDS:
        test_ndt_records_golden.test_records_and_pelt_decisions_identical(
            golden, seed)
    test_ndt_records_golden.test_stream_aggregate_and_store_key_identical(
        golden)


def _races():
    for name in sorted(test_experiment_races_golden.RUNS):
        test_experiment_races_golden.test_experiment_bit_identical(name)


def _obs():
    test_obs_golden.test_golden_trace_digest()


# Tier-1 runs the goldens that cost under 4 s together; the rest, about
# 25 s under the shim, are `-m slow`.
@pytest.mark.parametrize("check", [
    pytest.param(_fluid, id="fluid"),
    pytest.param(_path, id="path", marks=pytest.mark.slow),
    pytest.param(_wire, id="wire"),
    pytest.param(_ndt_records, id="ndt-records", marks=pytest.mark.slow),
    pytest.param(_races, id="races", marks=pytest.mark.slow),
    pytest.param(_obs, id="obs"),
])
def test_golden_holds_under_312_sum(check, monkeypatch):
    monkeypatch.setattr(builtins, "sum", sum312)
    check()

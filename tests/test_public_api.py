"""Public API surface checks.

Every name in each package's ``__all__`` must resolve, and the
package-level quicklook convenience must work (it is the README's
first code sample, minus the simulation time).
"""

import functools
import importlib

import pytest

PACKAGES = [
    "repro", "repro.sim", "repro.qdisc", "repro.tcp", "repro.cca",
    "repro.core", "repro.traffic", "repro.ndt", "repro.analysis",
    "repro.alloc", "repro.experiments",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} lacks __all__"
    for name in module.__all__:
        assert getattr(module, name, None) is not None, \
            f"{package}.{name} in __all__ but not importable"


@pytest.mark.parametrize("package", PACKAGES)
def test_packages_have_docstrings(package):
    module = importlib.import_module(package)
    assert module.__doc__ and len(module.__doc__.strip()) > 20


def test_version_string():
    import repro
    assert repro.__version__.count(".") == 2


def test_quicklook_facade_runs_short(monkeypatch):
    from repro import quicklook_elasticity
    from repro.core import quicklook
    # The facade probes for 30 s; 12 s keeps this test out of tier-1's
    # slowest twenty and reads the same.
    monkeypatch.setattr(quicklook, "run_quicklook", functools.partial(
        quicklook.run_quicklook, duration=12.0))
    result = quicklook_elasticity(cross_traffic="none")
    assert result.cross_traffic == "none" and result.duration == 12.0
    assert result.probe_throughput_mbps > 20.0
    assert result.verdict is False


def test_lazy_core_exports():
    import repro.core as core
    assert core.ElasticityProbe.__name__ == "ElasticityProbe"
    assert core.Campaign.__name__ == "Campaign"
    with pytest.raises(AttributeError):
        core.does_not_exist

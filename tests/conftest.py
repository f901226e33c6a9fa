"""Shared fixtures.

Every test runs with ``REPRO_STORE`` pointed at a per-test temp
directory so the suite can exercise the result store (including the
CLI's cache-by-default path) without ever touching the user's real
``~/.cache/repro``, and with fault-injection env vars cleared so
ambient state never leaks between tests.
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "repro-store"))
    monkeypatch.delenv("REPRO_FAULT_RATE", raising=False)
    monkeypatch.delenv("REPRO_QA_FAULT", raising=False)


@pytest.fixture
def bus_off(monkeypatch):
    """A context manager that turns the trace bus off inside it, even
    while ``REPRO_CHECK_INVARIANTS=1``'s runtime checkers (installed by
    the first ``Simulator`` of the process) keep it subscribed, so a
    test's untraced run really is untraced."""
    from contextlib import contextmanager

    from repro.obs.bus import BUS

    @contextmanager
    def off():
        with monkeypatch.context() as patch:
            patch.setattr(BUS, "enabled", False)
            yield
    return off

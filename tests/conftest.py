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

"""Shared fixtures for the test suite."""

import pytest


@pytest.fixture(autouse=True)
def trace_store_root(tmp_path, monkeypatch):
    """Point the default TraceStore at an empty per-test directory.

    The branch, Icache and Ecache experiment points read and write the
    default store, so without this every test would share the repo's
    ``.trace_cache/`` -- replaying entries that earlier tests, or older
    code, left there instead of computing.  Forked Runner workers
    inherit the patch.
    """
    root = tmp_path / "trace_cache"
    monkeypatch.setattr("repro.traces.store.DEFAULT_ROOT", root)
    return root

"""Leak guard for the serving tests: whatever a test starts, it stops."""

from __future__ import annotations

import glob
import threading

import pytest


def _shard_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("shard-")}


def _shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


@pytest.fixture(autouse=True)
def _no_leaked_threads_or_segments():
    threads, segments = _shard_threads(), _shm_segments()
    yield
    leaked_threads = sorted(t.name for t in _shard_threads() - threads)
    leaked_segments = sorted(_shm_segments() - segments)
    assert not leaked_threads, f"test left threads running: {leaked_threads}"
    assert not leaked_segments, (
        f"test left shared-memory segments: {leaked_segments}"
    )

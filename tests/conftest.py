"""Shared fixtures for the test suite."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def rng2():
    return np.random.default_rng(987654)


@pytest.fixture
def shard_gate(monkeypatch):
    """Hold every in-process batch at the door of its execution.

    Wraps ``repro.serve.workers.execute_serve_batch``: a batch sets
    ``entered``, then waits for ``gate`` before it runs.  A test parks a
    thread shard inside one batch this way, queues what it wants the shard
    to find when it is free again, and opens the gate, so which requests
    share a batch (or outlive their deadline) does not depend on thread
    scheduling.
    """
    from repro.serve import workers

    execute = workers.execute_serve_batch
    held = SimpleNamespace(entered=threading.Event(), gate=threading.Event())

    def gated(*args, **kwargs):
        held.entered.set()
        held.gate.wait(timeout=60)  # bounded, so a failing test cannot hang
        return execute(*args, **kwargs)

    monkeypatch.setattr(workers, "execute_serve_batch", gated)
    yield held
    held.gate.set()


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: slow emulator-level tests")

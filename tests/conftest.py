"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.hardware import HardwareDevice
from repro.uarch import Pipeline


@pytest.fixture(scope="session")
def device():
    """A default DE0-CV bench shared across tests (read-only use)."""
    return HardwareDevice()


@pytest.fixture()
def rng():
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def core_runs(monkeypatch):
    """One entry per scalar in-order core run since the test started
    (schedule recordings included; replays run no core)."""
    runs = []
    run = Pipeline.run

    def counting(self, *args, **kwargs):
        runs.append(1)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Pipeline, "run", counting)
    return runs

"""EMSim memoizes each program's predicted amplitudes in the trace cache.

:meth:`repro.core.simulator.EMSim.trace_amplitudes` stores the per-cycle
amplitudes under the program's trace key, salted with a digest of the
pickled model and switches (category ``predict``).  A repeated program
(the fixed group of a TVLA campaign) skips the prediction; everything
else must stay exactly what a run with the cache disabled gives.  Each
test here fails against a memo that leaves out the part it checks: the
data image, a model parameter, the switches, or the copy handed to each
caller.
"""

import copy

import numpy as np
import pytest

from repro.core import (EMSim, Trainer, configure_trace_cache,
                        get_trace_cache, trace_cache_disabled)
from repro.hardware import HardwareDevice
from repro.leakage import aes_program
from repro.observability import disable_metrics, enable_metrics

from .oracles import trace_bytes

KEY = list(range(16))
FIXED = [0x3C] * 16


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts from an empty, enabled in-memory global cache."""
    configure_trace_cache(directory="", enabled=True, clear=True)
    yield
    configure_trace_cache(directory="", enabled=True, clear=True)


@pytest.fixture(scope="module")
def trained():
    """A small trained model on a seeded bench."""
    device = HardwareDevice(seed=3)
    model = Trainer(device=device, activity_probes_per_class=2,
                    miso_groups=1, miso_group_size=32,
                    fit_kernel_parameters=False, seed=11).train()
    return model, device.core_config


@pytest.fixture()
def simulator(trained):
    """A simulator over this test's own copy of the trained model."""
    model, core_config = trained
    return EMSim(copy.deepcopy(model), core_config=core_config)


@pytest.fixture()
def registry():
    """The metrics registry, enabled and empty for one test."""
    registry = enable_metrics()
    registry.reset()
    yield registry
    disable_metrics()
    registry.reset()


def _aes(plaintext):
    return aes_program(KEY, plaintext, rounds=2)


def _bits(result):
    """Everything a :class:`SimulatedSignal` holds, as bytes."""
    return (result.amplitudes.tobytes(), result.signal.tobytes(),
            trace_bytes(result.trace), result.samples_per_cycle)


def test_fixed_group_hits_and_every_signal_matches_the_disabled_cache(
        simulator, registry):
    rng = np.random.default_rng(8)
    programs = [_aes(FIXED) for _ in range(6)]
    programs += [_aes([int(byte) for byte in rng.integers(0, 256, 16)])
                 for _ in range(6)]
    cached = [_bits(simulator.simulate(program)) for program in programs]
    assert registry.counters["trace_cache.predict.hits"] == 5
    assert registry.counters["trace_cache.predict.misses"] == 7
    with trace_cache_disabled():
        fresh = [_bits(simulator.simulate(program)) for program in programs]
    assert cached == fresh


def test_callers_get_their_own_arrays(simulator, registry):
    program = _aes(FIXED)
    with trace_cache_disabled():
        clean = _bits(simulator.simulate(program))
    for _ in range(3):  # a miss, then two hits
        result = simulator.simulate(program)
        assert _bits(result) == clean
        assert result.amplitudes.flags.writeable
        result.amplitudes[:] = -1.0
        result.signal[:] = -1.0
    assert registry.counters["trace_cache.predict.hits"] == 2
    stored = [value for value in get_trace_cache()._entries.values()
              if isinstance(value, np.ndarray)]
    assert len(stored) == 1 and not stored[0].flags.writeable


def test_simulate_many_shares_the_memo(simulator, registry):
    program = _aes(FIXED)
    first = simulator.simulate(program)
    batch = simulator.simulate_many([program, _aes(FIXED)])
    assert registry.counters["trace_cache.predict.hits"] == 2
    assert all(_bits(result) == _bits(first) for result in batch)


def _first_stage_with_features(model):
    return next(stage for stage, fit in
                sorted(model.regression_activity.models.items())
                if fit.features.size)


def _reassign_intercept(simulator):
    simulator.model.intercept += 0.5
    return simulator


def _reassign_beta(simulator):
    simulator.model.beta = {stage: 1.25 for stage in simulator.model.beta}
    return simulator


def _edit_beta(simulator):
    simulator.model.beta["E"] = 1.5
    return simulator


def _edit_floors(simulator):
    simulator.model.floors["E"] += 0.25
    return simulator


def _edit_miso(simulator):
    simulator.model.miso["E"] *= 1.5
    return simulator


def _edit_amplitudes(simulator):
    for key in simulator.model.amplitudes:
        simulator.model.amplitudes[key] *= 1.25
    return simulator


def _edit_coefficient(simulator):
    model = simulator.model
    fit = model.regression_activity.models[_first_stage_with_features(model)]
    fit.coefficients[np.argmax(np.abs(fit.coefficients))] *= 0.5
    return simulator


def _no_regression_alpha(simulator):
    return simulator.with_switches(regression_alpha=False)


def _no_data_dependence(simulator):
    return simulator.with_switches(data_dependence=False)


@pytest.mark.parametrize("change", [
    _reassign_intercept, _reassign_beta, _edit_beta, _edit_floors,
    _edit_miso, _edit_amplitudes, _edit_coefficient, _no_regression_alpha,
    _no_data_dependence], ids=lambda change: change.__name__.strip("_"))
def test_a_changed_model_or_switch_misses(simulator, registry, change):
    program = _aes(FIXED)
    simulator.simulate(program)
    memoized = simulator.simulate(program)
    assert registry.counters["trace_cache.predict.hits"] == 1
    changed = change(simulator)
    after = changed.simulate(program)
    with trace_cache_disabled():
        fresh = changed.simulate(program)
    assert _bits(after) == _bits(fresh)
    assert after.amplitudes.tobytes() != memoized.amplitudes.tobytes()
    assert registry.counters["trace_cache.predict.hits"] == 1

"""Batched/parallel engine: numerical contracts and determinism.

The batch layer (``repro.core.batch``, the batched signal helpers, and
the worker fan-out in training and leakage sweeps) promises:

* re-simulation through :class:`BatchSimulator` is **bit-identical** to
  calling ``EMSim.simulate`` per program;
* measurement campaigns agree between ``workers=1`` and ``workers=N``
  (one engine at every worker count; ``tests/test_invariance.py`` pins
  bit-identity), including under fault injection;
* results are deterministic and independent of worker count, because
  every campaign item reseeds from ``(seed, index)``.
"""

import json
import pickle

import numpy as np
import pytest

from repro.core import (BatchSimulator, EMSim, ModelSwitches, Trainer,
                        measurement_campaign, model_to_dict, train_emsim)
from repro.hardware import HardwareDevice
from repro.parallel import spawn_seed
from repro.observability import (disable_metrics, disable_tracing,
                                 enable_metrics, enable_tracing)
from repro.robustness import FaultPlan
from repro.signal import (DEFAULT_KERNEL, batch_estimate_cycle_amplitudes,
                          batch_reconstruct, estimate_cycle_amplitudes,
                          reconstruct)
from repro.uarch.latches import STAGES
from repro.workloads import RandomProgramBuilder

CONTRACT = 1e-9
"""The documented max-abs-diff bound between batched and one-at-a-time
signal helpers."""


def _programs(count, length=24, seed=5):
    builder = RandomProgramBuilder(seed=seed)
    return [builder.program(length, name=f"prog_{i:03d}")
            for i in range(count)]


@pytest.fixture(scope="module")
def trained():
    device = HardwareDevice(seed=3)
    model = train_emsim(device)
    return device, model, EMSim(model, core_config=device.core_config)


def _max_campaign_diff(left, right):
    diff = 0.0
    for a, b in zip(left, right):
        diff = max(diff, float(np.abs(a.signal - b.signal).max()),
                   float(np.abs(a.amplitudes - b.amplitudes).max()))
    return diff


# ---------------------------------------------------------------------------
# batched re-simulation
# ---------------------------------------------------------------------------
def test_simulate_many_bit_identical(trained):
    _, _, simulator = trained
    programs = _programs(6)
    for workers in (1, 2):
        batch = BatchSimulator(simulator, workers=workers)
        results = batch.simulate_many(programs)
        assert len(results) == len(programs)
        for program, result in zip(programs, results):
            reference = simulator.simulate(program)
            assert np.array_equal(result.amplitudes, reference.amplitudes)
            assert np.array_equal(result.signal, reference.signal)


def test_simulator_simulate_many_entry_point(trained):
    _, _, simulator = trained
    programs = _programs(3)
    results = simulator.simulate_many(programs, workers=2)
    reference = [simulator.simulate(p) for p in programs]
    for got, want in zip(results, reference):
        assert np.array_equal(got.signal, want.signal)


def test_vectorized_predict_matches_scalar_reference(trained):
    """The vectorized per-cycle predictor is bitwise the legacy loop."""
    _, model, simulator = trained
    switch_sets = [ModelSwitches(),
                   ModelSwitches(model_stalls=False),
                   ModelSwitches(regression_alpha=False),
                   ModelSwitches(data_dependence=False)]
    for program in _programs(3, seed=11):
        trace = simulator.run_trace(program)
        for switches in switch_sets:
            got = model.predict_cycle_amplitudes(trace, switches=switches)
            assert np.array_equal(got, _scalar_predict(model, trace,
                                                       switches))


def _scalar_predict(model, trace, switches):
    """The pre-vectorization per-cycle reference loop, kept verbatim."""
    activity = model._activity_model(switches)
    cycles = trace.num_cycles
    prediction = np.full(cycles, model.intercept)
    for stage in STAGES:
        floor = model.floors.get(stage, 0.0)
        scale = model.miso.get(stage, 1.0) * model.beta.get(stage, 1.0)
        alphas = activity.alpha(trace, stage)
        contribution = np.empty(cycles)
        for cycle, occ in enumerate(trace.occupancy[stage]):
            em_class = occ.em_class()
            if em_class == "stall":
                if switches.model_stalls:
                    contribution[cycle] = 0.0
                    continue
                em_class = (occ.instr.cls.value if occ.instr is not None
                            else "nop")
                if occ.instr is not None and occ.instr.is_load:
                    em_class = "load_cache" if occ.dyn == "hit" \
                        else "load_mem"
            if em_class == "nop":
                contribution[cycle] = floor * model.beta.get(stage, 1.0)
                continue
            amplitude = model.amplitude(em_class, stage, switches)
            contribution[cycle] = \
                floor * model.beta.get(stage, 1.0) + \
                scale * alphas[cycle] * amplitude
        prediction += contribution
    return prediction


# ---------------------------------------------------------------------------
# batched signal helpers
# ---------------------------------------------------------------------------
def test_batch_reconstruct_bit_identical(rng):
    amplitudes = [rng.normal(size=n) for n in (17, 30, 17, 5)]
    signals = batch_reconstruct(amplitudes, DEFAULT_KERNEL, 10)
    for amps, signal in zip(amplitudes, signals):
        assert np.array_equal(signal, reconstruct(amps, DEFAULT_KERNEL, 10))


def test_batch_estimate_matches_sequential(rng):
    signals = []
    for n in (12, 25, 12):
        clean = reconstruct(rng.normal(size=n), DEFAULT_KERNEL, 10)
        signals.append(clean + rng.normal(scale=0.01, size=len(clean)))
    batched = batch_estimate_cycle_amplitudes(signals, DEFAULT_KERNEL, 10)
    for signal, amps in zip(signals, batched):
        reference = estimate_cycle_amplitudes(signal, DEFAULT_KERNEL, 10)
        assert np.abs(amps - reference).max() < CONTRACT


# ---------------------------------------------------------------------------
# measurement campaigns
# ---------------------------------------------------------------------------
def test_campaign_workers_agree_within_contract():
    programs = _programs(6)
    sequential = measurement_campaign(HardwareDevice(seed=3), programs,
                                      repetitions=16, workers=1, seed=9)
    batched = measurement_campaign(HardwareDevice(seed=3), programs,
                                   repetitions=16, workers=8, seed=9)
    assert [p.program_name for p in sequential] == \
        [p.program_name for p in batched]
    assert _max_campaign_diff(sequential, batched) < CONTRACT


def test_campaign_workers_agree_under_faults():
    plan = FaultPlan.preset(0.25, seed=7)
    programs = _programs(6)
    runs = [measurement_campaign(
        HardwareDevice(seed=3, fault_plan=FaultPlan.preset(0.25, seed=7)),
        programs, repetitions=16, workers=workers, seed=9)
        for workers in (1, 8)]
    assert plan.describe()  # the plan is non-trivial
    assert _max_campaign_diff(*runs) < CONTRACT


def test_campaign_deterministic_across_runs():
    programs = _programs(5)
    first = measurement_campaign(HardwareDevice(seed=3), programs,
                                 repetitions=12, workers=8, seed=4)
    second = measurement_campaign(HardwareDevice(seed=3), programs,
                                  repetitions=12, workers=8, seed=4)
    for a, b in zip(first, second):
        assert np.array_equal(a.signal, b.signal)
        assert np.array_equal(a.amplitudes, b.amplitudes)


# ---------------------------------------------------------------------------
# parallel training
# ---------------------------------------------------------------------------
def test_trainer_workers_identical_on_ideal_path():
    """Ideal captures never consume the device RNG, so the worker pool
    must reproduce the sequential model bit-for-bit."""
    kwargs = dict(activity_probes_per_class=4, miso_groups=1,
                  miso_group_size=48, repetitions=16, seed=11)
    models = []
    for workers in (1, 2):
        trainer = Trainer(device=HardwareDevice(seed=3), workers=workers,
                          **kwargs)
        models.append(model_to_dict(trainer.train()))
    assert json.dumps(models[0], sort_keys=True) == \
        json.dumps(models[1], sort_keys=True)


# ---------------------------------------------------------------------------
# determinism plumbing
# ---------------------------------------------------------------------------
def test_spawn_seed_streams_are_independent():
    base = spawn_seed(42, 3).random(4)
    assert np.array_equal(base, spawn_seed(42, 3).random(4))
    assert not np.array_equal(base, spawn_seed(42, 4).random(4))
    assert not np.array_equal(base, spawn_seed(42, 3, stream=1).random(4))
    assert not np.array_equal(base, spawn_seed(43, 3).random(4))


def test_trace_pickle_drops_transition_cache(trained):
    _, _, simulator = trained
    trace = simulator.run_trace(_programs(1)[0])
    matrix = trace.transition_matrix("E")          # populate the cache
    clone = pickle.loads(pickle.dumps(trace))
    assert "_transition_cache" not in clone.__dict__ or \
        not clone.__dict__["_transition_cache"]
    assert np.array_equal(clone.transition_matrix("E"), matrix)


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------
def test_campaign_records_profile_phases():
    tracer, registry = enable_tracing(), enable_metrics()
    registry.reset()
    try:
        measurement_campaign(HardwareDevice(seed=3), _programs(2),
                             repetitions=8, workers=1, seed=0)
        spans = tracer.by_name()
        assert spans["campaign.capture"]["calls"] == 2
        assert spans["campaign.deconvolve"]["calls"] == 2
        assert registry.counters["campaign.programs"] == 2
    finally:
        disable_tracing()
        disable_metrics()
        tracer.reset()
        registry.reset()

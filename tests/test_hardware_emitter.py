"""Unit tests for the emission synthesis internals (repro.hardware.emitter)."""

import numpy as np
import pytest

from repro.hardware import (DE0_CV, DeviceInstance, HardwareDevice,
                            HardwareEmitter, ProbePosition)
from repro.hardware.emitter import stage_couplings
from repro.isa import Instruction
from repro.leakage import DEFAULT_KEY, aes_program
from repro.observability import disable_metrics, enable_metrics
from repro.signal import ScopeConfig
from repro.signal import reconstruction
from repro.signal.reconstruction import clear_plan_caches, plan_cache_sizes
from repro.uarch import run_program
from repro.workloads import RandomProgramBuilder, nop_padded

from .oracles import on_grid, per_repetition_continuous, seed_continuous


@pytest.fixture(scope="module")
def trace():
    program = nop_padded([Instruction("mul", rd=5, rs1=8, rs2=9),
                          Instruction("lw", rd=6, rs1=3, imm=64)])
    result, _ = run_program(program)
    return result


@pytest.fixture(scope="module")
def emitter():
    return HardwareEmitter(DE0_CV.build_units())


def test_unit_amplitudes_shape_and_positivity(emitter, trace):
    amplitudes = emitter.unit_amplitudes(trace)
    assert amplitudes.shape == (trace.num_cycles, len(emitter.units))
    assert np.all(amplitudes >= 0)


def test_signal_is_superposition_of_units(emitter, trace):
    total = emitter.signal_on_grid(trace, 20)
    summed = sum(emitter.signal_on_grid(trace, 20, unit_names=(unit.name,))
                 for unit in emitter.units)
    assert np.allclose(total, summed, atol=1e-9)


def test_stage_signals_partition_the_total(emitter, trace):
    total = emitter.signal_on_grid(trace, 20)
    by_stage = sum(emitter.stage_signal_on_grid(trace, stage, 20)
                   for stage in ("F", "D", "E", "M", "W"))
    assert np.allclose(total, by_stage, atol=1e-9)


def test_continuous_matches_grid_at_grid_points(emitter, trace):
    grid = emitter.signal_on_grid(trace, 20)
    values = emitter.continuous(trace)(np.zeros(1), len(grid), 1 / 20.0)
    # continuous evaluation includes kernel tails past the truncated
    # support, so allow a small absolute tolerance
    assert np.allclose(values, grid, atol=5e-3)


def test_gain_scales_linearly(trace):
    units = DE0_CV.build_units()
    base = HardwareEmitter(units, gain=1.0).signal_on_grid(trace, 20)
    doubled = HardwareEmitter(units, gain=2.0).signal_on_grid(trace, 20)
    assert np.allclose(doubled, 2.0 * base)


def test_clock_scale_stretches_continuous_time(trace):
    units = DE0_CV.build_units()
    nominal = HardwareEmitter(units, clock_scale=1.0)
    slow = HardwareEmitter(units, clock_scale=1.01)
    starts = np.array([0.013, 0.29])
    step = (trace.num_cycles - 1) / 500
    nominal_values = nominal.continuous(trace)(starts, 500, step)
    stretched = slow.continuous(trace)(starts * 1.01, 500, step * 1.01)
    assert np.allclose(nominal_values, stretched, atol=1e-9)


@pytest.mark.parametrize("instance_id", [0, 1, 2])
def test_grid_evaluator_matches_seed_oracle(instance_id):
    """The per-cycle table evaluator equals the seed's per-sample
    ``sin`` * ``exp`` evaluation within 1e-10 on scope grids (4, the
    default asynchronous 20.03 and 40 samples per cycle, each at 20
    random starts) and on the auto-range pilot's grid."""
    device = HardwareDevice(instance=DeviceInstance(instance_id=instance_id))
    emitter = device.emitter
    if instance_id:
        assert emitter.clock_scale != 1.0      # off-nominal clock covered
    builder = RandomProgramBuilder(seed=instance_id)
    rng = np.random.default_rng(instance_id)
    worst = 0.0
    for index in range(6):
        trace = device.run_trace(builder.program(24, name=f"p{index}"))
        y = emitter.continuous(trace)
        oracle = on_grid(seed_continuous(emitter, trace))
        duration = trace.num_cycles * emitter.clock_scale
        # starts reach past both ends of the trace's zero-guard rows
        starts = rng.uniform(-6.0, 6.0, 20)
        for rate in (4.0, ScopeConfig().effective_rate, 40.0):
            count = int(duration * rate)
            values = y(starts, count, 1.0 / rate)
            assert values.shape == (len(starts) * count,)
            worst = max(worst, np.max(np.abs(
                values - oracle(starts, count, 1.0 / rate))))
        bins = trace.num_cycles * device.samples_per_cycle
        pilot = y(np.zeros(1), bins, duration / bins)
        expected = seed_continuous(emitter, trace)(
            np.linspace(0.0, duration, bins, endpoint=False))
        worst = max(worst, np.max(np.abs(pilot - expected)))
    assert worst <= 1e-10


@pytest.mark.parametrize("instance_id", [0, 1, 2])
def test_grid_products_match_the_per_repetition_evaluator(instance_id):
    """The two matrix products per start cycle equal the former
    evaluator, which gathers table rows and takes a dot product one
    repetition at a time, within 1e-12 relative: on random probes, for
    starts spread over several cycles (so repetitions fall into several
    groups, some past the trace's ends), for the auto-range pilot's
    single zero start, and for repetition and sample counts down to 1."""
    device = HardwareDevice(instance=DeviceInstance(instance_id=instance_id))
    emitter = device.emitter
    if instance_id:
        assert emitter.clock_scale != 1.0      # off-nominal clock covered
    builder = RandomProgramBuilder(seed=10 + instance_id)
    rng = np.random.default_rng(10 + instance_id)
    for index in range(4):
        trace = device.run_trace(builder.program(32, name=f"q{index}"))
        y = emitter.continuous(trace)
        oracle = per_repetition_continuous(emitter, trace)
        duration = trace.num_cycles * emitter.clock_scale
        bins = trace.num_cycles * device.samples_per_cycle
        calls = [(np.zeros(1), bins, duration / bins)]
        for repetitions in (1, 2, 7, 50):
            starts = rng.uniform(-3.0, 4.0, repetitions)
            assert repetitions < 7 or len(np.unique(np.floor(starts))) > 1
            for rate in (4.0, ScopeConfig().effective_rate, 40.0):
                calls.append((starts, int(duration * rate), 1.0 / rate))
            calls.append((starts, 1, 0.05))
        for starts, count, step in calls:
            expected = oracle(starts, count, step)
            values = y(starts, count, step)
            assert values.shape == expected.shape == (len(starts) * count,)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(values - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("instance_id", [0, 1])
def test_warm_phase_tables_give_cold_bytes(instance_id):
    """Probes whose sample counts rise, fall and repeat evaluate the scope
    and auto-range pilot grids to the bytes a cold plan cache gives, at a
    nominal and an off-nominal clock: a cached phase table is sliced or
    regrown, never computed differently."""
    device = HardwareDevice(instance=DeviceInstance(instance_id=instance_id))
    builder = RandomProgramBuilder(seed=20 + instance_id)
    traces = sorted((device.run_trace(builder.program(length,
                                                      name=f"r{length}"))
                     for length in (8, 24, 48, 96)),
                    key=lambda trace: trace.num_cycles)
    assert len({trace.num_cycles for trace in traces}) == len(traces)
    rng = np.random.default_rng(instance_id)
    rate = ScopeConfig().effective_rate
    calls = []
    for trace in traces + traces[::-1] + traces[1:2]:
        duration = trace.num_cycles * device.instance.clock_scale
        bins = trace.num_cycles * device.samples_per_cycle
        calls.append((trace, rng.uniform(0, 0.4, 5), int(duration * rate),
                      1.0 / rate))
        calls.append((trace, np.zeros(1), bins, duration / bins))
    registry = enable_metrics()
    registry.reset()
    try:
        clear_plan_caches()
        warm = [device.emitter.continuous(trace)(starts, count, step)
                for trace, starts, count, step in calls]
        counters = dict(registry.counters)
    finally:
        disable_metrics()
        registry.reset()
    assert counters["signal.phase.cache.hits"] > len(traces)
    cold = []
    for trace, starts, count, step in calls:
        clear_plan_caches()
        cold.append(device.emitter.continuous(trace)(starts, count, step))
    assert [values.tobytes() for values in warm] == \
        [values.tobytes() for values in cold]


def test_phase_tables_stay_within_their_byte_bound():
    """A 10-round AES reference capture asks for two ~113k-sample phase
    tables of 11 units (~20 MB each), the pilot's and the scope's; the
    cache keeps within its byte bound by evicting the pilot's, and
    ``clear_plan_caches`` empties it."""
    clear_plan_caches()
    cache = reconstruction._PHASE_TABLES
    device = HardwareDevice()
    measurement = device.capture_reference(
        aes_program(DEFAULT_KEY, list(range(16)), rounds=10), repetitions=2)
    assert measurement.num_cycles > 5000
    assert plan_cache_sizes()["phases"] == 1
    assert cache.maxbytes / 2 < cache.nbytes <= cache.maxbytes
    clear_plan_caches()
    assert plan_cache_sizes()["phases"] == 0 and cache.nbytes == 0


def test_probe_position_changes_couplings(trace):
    units = DE0_CV.build_units()
    centered = HardwareEmitter(units)
    offset = HardwareEmitter(units, probe=ProbePosition(3.0, 1.0, 6.0))
    center_couplings = stage_couplings(units, centered.probe)
    offset_couplings = stage_couplings(units, offset.probe)
    assert all(offset_couplings[stage] < center_couplings[stage]
               for stage in offset_couplings)
    # and not uniformly: relative stage weights change with position
    ratios = [offset_couplings[stage] / center_couplings[stage]
              for stage in ("F", "D", "E", "M", "W")]
    assert max(ratios) - min(ratios) > 0.005


def test_mul_final_cycle_radiates_more_than_mid_stall(emitter, trace):
    mul_seq = next(index for index, occ
                   in enumerate(trace.occupancy["E"])
                   if occ.active and occ.instr is not None
                   and occ.instr.name == "mul")
    cycles = trace.cycles_of(
        next(entry.seq for entry in trace.retired
             if entry.instr.name == "mul"), "E")
    amplitudes = emitter.unit_amplitudes(trace)
    muldiv_column = [unit.name for unit in emitter.units] \
        .index("muldiv_unit")
    final = amplitudes[cycles[-1], muldiv_column]
    middle = amplitudes[cycles[1], muldiv_column]
    assert final > middle

"""Unit tests for the emission synthesis internals (repro.hardware.emitter)."""

import numpy as np
import pytest

from repro.hardware import (DE0_CV, DeviceInstance, HardwareDevice,
                            HardwareEmitter, ProbePosition)
from repro.hardware.emitter import stage_couplings
from repro.isa import Instruction
from repro.signal import ScopeConfig
from repro.uarch import run_program
from repro.workloads import RandomProgramBuilder, nop_padded

from .oracles import on_grid, seed_continuous


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

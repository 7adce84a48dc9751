"""EM-class consumers gather per-class tables by integer EM code.

Every production consumer of a trace's EM classes indexes a table over
``EM_CLASSES`` with ``trace.em_codes(stage)``.  These tests pin each one
bit for bit to the seed's per-cycle loop over class labels and occupancy
objects (``tests/oracles.py``), on a stall- and miss-heavy program.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import FULL_MODEL, Trainer
from repro.core.microbench import isolation_probe, repeat_probe
from repro.hardware import HardwareDevice
from repro.isa import NOP, OPCODES, Instruction
from repro.leakage import savat_program
from repro.uarch import EM_INDEX, OCC_INSTR, Pipeline, StageOccupancy
from repro.uarch.latches import STAGES
from repro.uarch.trace import _DYN_NAMES, _em_row

from .oracles import (seed_joint_rows, seed_miso_design,
                      seed_predict_cycle_amplitudes, seed_unit_amplitudes)


def _bits(array):
    array = np.asarray(array)
    return array.shape, array.dtype, array.tobytes()


def test_em_code_rows_match_em_class():
    for instr in [NOP] + [Instruction(name, rd=1, rs1=2, rs2=3)
                          for name in OPCODES]:
        expected = tuple(
            EM_INDEX.get(StageOccupancy(OCC_INSTR, instr, None,
                                        dyn).em_class(), 0)
            for dyn in _DYN_NAMES)
        assert _em_row(instr) == expected, instr.to_asm()


@pytest.fixture(scope="module")
def bench():
    """A small trained model and the LDM/DIV SAVAT kernel's trace."""
    device = HardwareDevice(seed=3)
    trainer = Trainer(device=device, activity_probes_per_class=4,
                      miso_groups=1, miso_group_size=32,
                      fit_kernel_parameters=False, seed=11)
    model = trainer.train()
    program = savat_program("LDM", "DIV", repeats=4)
    trace = Pipeline(program, config=device.core_config).run()
    return device, trainer, model, program, trace


def test_kernel_stalls_and_misses(bench):
    trace = bench[4]
    assert trace.cache_misses > 0
    assert all(trace.stall_mask(stage).any() for stage in ("F", "D", "E"))


@pytest.mark.parametrize("switches", [
    FULL_MODEL,
    replace(FULL_MODEL, model_stalls=False),
    replace(FULL_MODEL, model_cache=False),
    replace(FULL_MODEL, per_stage_sources=False),
], ids=lambda switches: switches.describe())
def test_predict_cycle_amplitudes_bit_identical(bench, switches):
    model, trace = bench[2], bench[4]
    assert _bits(model.predict_cycle_amplitudes(trace, switches)) == \
        _bits(seed_predict_cycle_amplitudes(model, trace, switches))


def test_unit_amplitudes_bit_identical(bench):
    device, trace = bench[0], bench[4]
    assert _bits(device.emitter.unit_amplitudes(trace)) == \
        _bits(seed_unit_amplitudes(device.emitter, trace))


def test_miso_design_bit_identical(bench):
    trainer, model, trace = bench[1], bench[2], bench[4]
    assert _bits(trainer.miso_design(model, trace)) == \
        _bits(seed_miso_design(model, trace))


def _joint_layout(model):
    """The joint fit's column layout for ``model``'s selected features."""
    selected = {stage: linear.features for stage, linear
                in model.regression_activity.models.items()}
    stage_order = [stage for stage in STAGES if stage in selected]
    spans, position = {}, 0
    for stage in stage_order:
        spans[stage] = (position, 1 + selected[stage].size)
        position += spans[stage][1]
    stall_columns = {stage: position + index
                     for index, stage in enumerate(stage_order)}
    return (model.nop_level, model.amplitudes, selected, stage_order,
            spans, stall_columns, position + len(stage_order))


def test_joint_rows_bit_identical(bench):
    _, trainer, model, program, _ = bench
    measurement = trainer._measure(program, 0)
    layout = _joint_layout(model)
    measured = trainer._amplitudes(measurement)
    block, targets = trainer._joint_rows([measurement.trace], [measured],
                                         *layout)
    seed_block, seed_targets = seed_joint_rows(
        measured, measurement.trace, *layout)
    assert block.shape[0] > 0
    assert _bits(block) == _bits(seed_block)
    assert _bits(targets) == _bits(seed_targets)


def test_batched_joint_rows_stack_the_seed_blocks(bench):
    _, trainer, model, program, _ = bench
    programs = [program, savat_program("ADD", "MUL", repeats=2),
                isolation_probe("sw", rs1_value=0x12345678, mem_offset=64),
                repeat_probe("mul", rs1_value=0xDEADBEEF, count=3)]
    traces, measured = [], []
    for measurement in map(trainer._measure, programs, range(len(programs))):
        traces.append(measurement.trace)
        measured.append(trainer._amplitudes(measurement))
    layout = _joint_layout(model)
    block, targets = trainer._joint_rows(traces, measured, *layout)
    seeds = [seed_joint_rows(amplitudes, trace, *layout)
             for trace, amplitudes in zip(traces, measured)]
    assert all(seed_block.shape[0] > 0 for seed_block, _ in seeds)
    assert _bits(block) == _bits(np.vstack([rows for rows, _ in seeds]))
    assert _bits(targets) == \
        _bits(np.concatenate([values for _, values in seeds]))

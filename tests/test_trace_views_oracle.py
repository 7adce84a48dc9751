"""Trace views and ideal captures stay bit-identical to the seed builds.

:class:`~repro.uarch.trace.ActivityTrace` builds all five stages'
transition matrices from one XOR of its latch store and decodes all five
code columns in one pass; the emitter reads them stage by stage, and the
design builder counts with ``np.bitwise_count``.  The per-stage builds
they replaced live in ``tests/oracles.py``.  These properties pin
values, dtypes and memory order over generated programs on both cores,
runs truncated down to 0 cycles, replayed AES traces, unpickled traces,
and a trace read, grown and read again.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.activity import stage_design_matrices, stage_design_matrix
from repro.hardware import HardwareDevice
from repro.isa import Instruction
from repro.leakage import aes_program
from repro.uarch import DEFAULT_CONFIG, Pipeline, run_program
from repro.uarch.latches import STAGES
from repro.uarch.ooo import OutOfOrderCore
from repro.uarch.replay import record, replay
from repro.workloads.generators import RandomProgramBuilder

from .oracles import (seed_signal_on_grid, seed_stage_design_matrices,
                      seed_transition_matrix, seed_unit_amplitudes,
                      seed_unpacked, swar_popcount)

_SEEDS = st.integers(0, 2**16 - 1)
_LENGTHS = st.integers(1, 30)
_LIMITS = st.one_of(st.none(), st.integers(0, 40))
_CORES = {False: Pipeline, True: OutOfOrderCore}

_DEVICE = HardwareDevice(seed=3)


def _layout(array):
    """Everything a bit-identity check compares: dtype, shape, memory
    order and bytes."""
    return (array.dtype.str, array.shape, array.flags.c_contiguous,
            array.flags.f_contiguous, array.tobytes())


def _program(seed, length):
    builder = RandomProgramBuilder(seed=seed)
    return builder.program(length, name=f"views_{seed}_{length}")


def _run(program, ooo, max_cycles=None):
    return _CORES[ooo](program, config=DEFAULT_CONFIG).run(
        max_cycles=max_cycles)


def assert_views_match_seed(trace, seed=0):
    """Transitions, codes, designs and the ideal capture of ``trace``
    equal the seed builds'."""
    codes = trace._unpacked()
    seed_codes = seed_unpacked(trace)
    assert codes.keys() == seed_codes.keys()
    rng = np.random.default_rng(seed)
    cycles = trace.num_cycles
    for stage in STAGES:
        assert _layout(trace.transition_matrix(stage)) == \
            _layout(seed_transition_matrix(trace, stage))
        for column, by_stage in seed_codes.items():
            assert _layout(codes[column][stage]) == \
                _layout(by_stage[stage])
        width = stage_design_matrix(trace, stage).shape[1]
        columns = rng.choice(width, size=min(width, 7), replace=False)
        kept = rng.random(2 * cycles) < 0.5
        for chosen in (None, columns):
            assert _layout(stage_design_matrices((trace,), stage, chosen)) \
                == _layout(seed_stage_design_matrices((trace,), stage,
                                                      chosen))
            for rows in (kept, np.flatnonzero(kept)):
                assert _layout(stage_design_matrices(
                    (trace, trace), stage, chosen, rows=rows)) == \
                    _layout(seed_stage_design_matrices(
                        (trace, trace), stage, chosen, rows=rows))
    emitter = _DEVICE.emitter
    assert _layout(emitter.unit_amplitudes(trace)) == \
        _layout(seed_unit_amplitudes(emitter, trace))
    spc = _DEVICE.samples_per_cycle
    signal = emitter.signal_on_grid(trace, spc)
    if cycles:
        assert _layout(signal) == \
            _layout(seed_signal_on_grid(emitter, trace, spc))
    else:
        assert _layout(signal) == _layout(np.zeros(0))


@given(seed=_SEEDS, length=_LENGTHS, ooo=st.booleans(), limit=_LIMITS)
@settings(max_examples=30, deadline=None)
def test_views_match_seed_on_both_cores_and_truncated_runs(seed, length,
                                                           ooo, limit):
    assert_views_match_seed(_run(_program(seed, length), ooo, limit), seed)


@pytest.mark.parametrize("ooo", [False, True])
@pytest.mark.parametrize("cycles", [0, 1, 2])
def test_views_match_seed_on_the_shortest_traces(ooo, cycles):
    trace = _run(_program(1, 8), ooo, max_cycles=cycles)
    assert trace.num_cycles == cycles
    assert_views_match_seed(trace)


@given(seed=_SEEDS, length=_LENGTHS, ooo=st.booleans(), limit=_LIMITS)
@settings(max_examples=15, deadline=None)
def test_views_match_seed_on_unpickled_traces(seed, length, ooo, limit):
    trace = _run(_program(seed, length), ooo, limit)
    trace.transition_matrix("E")  # caches never travel in a pickle
    restored = pickle.loads(pickle.dumps(trace, pickle.HIGHEST_PROTOCOL))
    assert_views_match_seed(restored, seed)


@given(seed=_SEEDS, length=_LENGTHS, ooo=st.booleans(),
       first=st.integers(0, 20))
@settings(max_examples=15, deadline=None)
def test_views_are_rebuilt_when_a_read_trace_grows(seed, length, ooo,
                                                   first):
    core = _CORES[ooo](_program(seed, length), config=DEFAULT_CONFIG)
    trace = core.run(max_cycles=first)
    assert_views_match_seed(trace, seed)
    read = trace.num_cycles
    core.run()
    assert trace.num_cycles >= read
    assert_views_match_seed(trace, seed)


def test_views_match_seed_on_replayed_aes_traces():
    rng = np.random.default_rng(8)
    programs = [aes_program([int(byte) for byte in rng.integers(0, 256, 16)],
                            [int(byte) for byte in rng.integers(0, 256, 16)],
                            rounds=1) for _ in range(3)]
    recorded, schedule = record(programs[0], DEFAULT_CONFIG)
    assert_views_match_seed(recorded)
    for program in programs[1:]:
        replayed = replay(schedule, program)
        assert replayed is not None
        assert_views_match_seed(replayed)


@given(words=st.lists(st.integers(0, 2**64 - 1), max_size=40))
@settings(max_examples=50, deadline=None)
def test_bitwise_count_matches_swar_popcount(words):
    words = np.array(words, dtype=np.uint64)
    assert np.array_equal(np.bitwise_count(words), swar_popcount(words))


@given(seed=_SEEDS, length=_LENGTHS, ooo=st.booleans())
@settings(max_examples=10, deadline=None)
def test_unit_flips_multiply_a_c_ordered_float64_operand(seed, length, ooo):
    """Each unit's flips are the product of its tapped bits as a
    C-ordered ``float64`` copy: the rounding of the matrix-vector
    product depends on that layout."""
    trace = _run(_program(seed, length), ooo)
    emitter = _DEVICE.emitter
    amplitudes = emitter.unit_amplitudes(trace)
    for column, unit in enumerate(emitter.units):
        operand = np.ascontiguousarray(
            trace.transition_matrix(unit.stage)[:, unit.bit_indices],
            dtype=np.float64)
        static = emitter._static_activity[column][trace.em_codes(unit.stage)]
        expected = static + operand @ unit.bit_weights
        assert expected.tobytes() == amplitudes[:, column].tobytes()


def test_em_row_memos_do_not_pickle():
    trace, _ = run_program(_program(3, 12))
    trace.em_codes("E")
    assert trace._instr_table
    for instr in trace._instr_table:
        assert "_em_row" in instr.__dict__
        fresh = Instruction(instr.name, instr.rd, instr.rs1, instr.rs2,
                            instr.imm)
        assert pickle.dumps(instr) == pickle.dumps(fresh)
        assert "_em_row" not in pickle.loads(pickle.dumps(instr)).__dict__

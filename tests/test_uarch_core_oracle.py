"""The compiled in-order core equals the seed core, run for run.

:meth:`repro.uarch.pipeline.Pipeline.run` is one loop over local state;
the stage-per-method core it replaced lives on in ``tests/oracles.py``
(:class:`~tests.oracles.SeedPipeline`, with the seed's
:class:`~tests.oracles.ScheduleRecorder`).  These tests hold the loop to
that oracle with zero tolerance: the same trace bytes, the same
instruction-table order, the same final registers, memory and halt
state, and for a recording the same data-latch provenance, executed
stream and :class:`~repro.uarch.replay.Schedule`.  Inputs are random
programs under random core configurations, cycle caps, the Fig. 11
buggy multiplier and oracle fetch, then the paper's fixed programs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.leakage import aes_program
from repro.leakage.debugging import buggy_multiplier
from repro.leakage.savat import SAVAT_INSTRUCTIONS, savat_program
from repro.uarch import (CacheConfig, CoreConfig, DEFAULT_CONFIG, Pipeline,
                         collect_oracle, run_program)
from repro.uarch.pipeline import Provenance
from repro.uarch.replay import Schedule, record
from repro.workloads import fibonacci
from repro.workloads.generators import RandomProgramBuilder

from .oracles import run_seed, seed_record, trace_bytes


def assert_runs_equal(program, config=DEFAULT_CONFIG, max_cycles=None,
                      alu_bug=None, oracle_fetch=False):
    """Run ``program`` on both cores; assert every output agrees."""
    seed_trace, seed_core = run_seed(
        program, config=config, max_cycles=max_cycles, alu_bug=alu_bug,
        oracle=collect_oracle(program) if oracle_fetch else None)
    trace, core = run_program(
        program, config=config, max_cycles=max_cycles, alu_bug=alu_bug,
        oracle=collect_oracle(program) if oracle_fetch else None)
    assert trace_bytes(trace) == trace_bytes(seed_trace)
    assert list(map(id, trace._instr_table)) == \
        list(map(id, seed_trace._instr_table))
    assert core.regfile.dump() == seed_core.regfile.dump()
    assert core.memory.snapshot() == seed_core.memory.snapshot()
    assert core.halted == seed_core.halted
    assert (core.cycle, core.pc) == (seed_core.cycle, seed_core.pc)


def assert_recordings_equal(program, config=DEFAULT_CONFIG,
                            max_cycles=None):
    """Record ``program`` with both cores; assert the provenance rows,
    the executed stream and the frozen schedule agree."""
    seed_trace, recorder = seed_record(program, config, max_cycles)
    core = Pipeline(program, config=config)
    core.provenance = provenance = Provenance(core.regfile.dump())
    trace = core.run(max_cycles=max_cycles)
    assert trace_bytes(trace) == trace_bytes(seed_trace)
    assert list(provenance.rows) == recorder._rows
    assert provenance.stream == recorder._stream
    expected = recorder.schedule(seed_trace, program, config)
    _, schedule = record(program, config, max_cycles)
    for name in Schedule.__dataclass_fields__:
        assert_same(getattr(schedule, name), getattr(expected, name), name)


def assert_same(value, expected, name):
    if isinstance(expected, np.ndarray):
        assert value.dtype == expected.dtype, name
        assert np.array_equal(value, expected), name
    elif name == "codes":
        assert value.keys() == expected.keys()
        for column, by_stage in expected.items():
            for stage, array in by_stage.items():
                assert_same(value[column][stage], array, name)
    else:
        assert value == expected, name


def _random_program(seed, length, muldiv=True, memory=True, branches=True):
    builder = RandomProgramBuilder(seed=seed, include_muldiv=muldiv,
                                   include_memory=memory,
                                   include_branches=branches)
    return builder.program(length, name=f"oracle_{seed}_{length}")


@st.composite
def core_configs(draw):
    """Core configs over every knob the cycle loop reads: forwarding,
    the three predictors, mul/div latencies, cache extra cycles and
    small 1-way caches (misses and evictions), BTBs of 1 to 64
    entries."""
    timing = {"hit_extra_cycles": draw(st.integers(0, 3)),
              "miss_extra_cycles": draw(st.integers(0, 3))}
    if draw(st.booleans()):
        line = draw(st.sampled_from([4, 16, 32]))
        sets = draw(st.sampled_from([1, 2, 4, 8]))
        cache = CacheConfig(size_bytes=sets * line, line_bytes=line,
                            ways=1, **timing)
    else:
        cache = CacheConfig(**timing)
    return CoreConfig(
        mul_latency=draw(st.integers(1, 8)),
        div_latency=draw(st.integers(1, 8)),
        forwarding=draw(st.booleans()),
        predictor=draw(st.sampled_from(["not-taken", "two-level",
                                        "gshare"])),
        btb_entries=draw(st.sampled_from([1, 2, 4, 16, 64])),
        cache=cache)


_CAPS = st.one_of(st.none(), st.integers(1, 300))


@given(seed=st.integers(0, 2**16 - 1), length=st.integers(4, 48),
       muldiv=st.booleans(), memory=st.booleans(), branches=st.booleans(),
       config=core_configs(), max_cycles=_CAPS,
       alu_bug=st.sampled_from([None, buggy_multiplier]),
       oracle_fetch=st.booleans())
@settings(max_examples=600, deadline=None)
def test_random_runs_equal_the_seed_core(seed, length, muldiv, memory,
                                         branches, config, max_cycles,
                                         alu_bug, oracle_fetch):
    program = _random_program(seed, length, muldiv, memory, branches)
    assert_runs_equal(program, config, max_cycles, alu_bug, oracle_fetch)


@given(seed=st.integers(0, 2**16 - 1), length=st.integers(4, 48),
       config=core_configs(), max_cycles=_CAPS)
@settings(max_examples=250, deadline=None)
def test_random_recordings_equal_the_seed_recorder(seed, length, config,
                                                   max_cycles):
    assert_recordings_equal(_random_program(seed, length), config,
                            max_cycles)


def _aes(rounds):
    rng = np.random.default_rng(rounds)
    return aes_program([int(byte) for byte in rng.integers(0, 256, 16)],
                       [int(byte) for byte in rng.integers(0, 256, 16)],
                       rounds=rounds)


@pytest.mark.parametrize("rounds", [1, 2, 10])
def test_aes_equals_the_seed_core(rounds):
    program = _aes(rounds)
    assert_runs_equal(program)
    assert_recordings_equal(program)


@pytest.mark.parametrize("pair", [(a, b) for a in SAVAT_INSTRUCTIONS
                                  for b in SAVAT_INSTRUCTIONS],
                         ids="-".join)
def test_savat_programs_equal_the_seed_core(pair):
    assert_runs_equal(savat_program(*pair))


def test_campaign_candidates_equal_the_seed_core():
    # the benchmark's campaign set-up probes 32 such programs at seed 0
    generator = RandomProgramBuilder(seed=0)
    for index in range(32):
        program = generator.program(32, name=f"probe{index:02d}")
        assert_runs_equal(program)
        assert_recordings_equal(program)


def test_state_persists_between_calls():
    # steps, a capped run and a later run continue one run
    program = _aes(1)
    uncapped, _ = run_program(program)
    core = Pipeline(program)
    for _ in range(7):
        core.step()
    assert core.cycle == 7 and core.trace.num_cycles == 7
    core.run(max_cycles=300)
    assert core.cycle == 300 and not core.halted
    assert core.trace.num_cycles == 300
    trace = core.run()
    assert core.halted and trace is core.trace
    assert trace_bytes(trace) == trace_bytes(uncapped)
    # a halted core's run is a no-op; a step still clocks one cycle,
    # as the seed core's does
    assert core.run() is trace and trace.num_cycles == uncapped.num_cycles
    seed_trace, seed_core = run_seed(program)
    core.step()
    seed_core.step()
    assert trace_bytes(core.trace) == trace_bytes(seed_trace)


def test_recording_persists_between_calls():
    program = fibonacci(7)
    seed_trace, recorder = seed_record(program, DEFAULT_CONFIG)
    core = Pipeline(program)
    core.provenance = provenance = Provenance(core.regfile.dump())
    core.step()
    core.run(max_cycles=20)
    trace = core.run()
    assert trace_bytes(trace) == trace_bytes(seed_trace)
    assert list(provenance.rows) == recorder._rows
    assert provenance.stream == recorder._stream


def test_compiled_instruction_is_shared_and_not_pickled():
    import pickle

    from repro.uarch.pipeline import compiled
    template = _aes(1)
    copy = template.with_data({})
    run_program(template)
    instr = copy.instructions[0]
    assert compiled(instr) is compiled(template.instructions[0])
    restored = pickle.loads(pickle.dumps(instr))
    assert restored == instr and "_pipeline_code" not in restored.__dict__

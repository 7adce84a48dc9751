"""Schedule replay equals the scalar core, cycle for cycle.

EMSim's trace-cache runner records the in-order core's schedule once
per code family and replays it for later misses
(:mod:`repro.uarch.replay`).  A family of programs bound from one
template (``Program.with_data``, e.g. every ``aes_program``) records on
its first miss; any other family runs the plain core on its first miss
and records on its second.  Every test here compares the content of
those runs (``trace_bytes`` in ``tests/oracles.py``) with runs under
:func:`trace_cache_disabled`, which always take the scalar core, and
checks which later misses replayed and which fell back.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.core import (EMSim, configure_trace_cache, get_trace_cache,
                        trace_cache_disabled)
from repro.core import simulator as simulator_module
from repro.core.config import EMSimConfig
from repro.core.model import EMSimModel
from repro.core.trace_cache import code_family_key
from repro.isa import Instruction, Program, assemble
from repro.leakage import aes_program
from repro.observability import disable_metrics, enable_metrics
from repro.uarch import DEFAULT_CONFIG, STAGES, run_program
from repro.uarch.replay import record, replay
from repro.workloads import nop_padded

from .oracles import trace_bytes

SALT = "sim:mispredicts=True"
"""The trace-key salt of a full-model simulator."""


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts from an empty, enabled in-memory global cache."""
    configure_trace_cache(directory="", enabled=True, clear=True)
    yield
    configure_trace_cache(directory="", enabled=True, clear=True)


@pytest.fixture(scope="module")
def simulator():
    """A simulator on the default core (running traces needs no fit)."""
    return EMSim(EMSimModel(config=EMSimConfig()))


@pytest.fixture()
def replays(monkeypatch):
    """Outcome of every replay EMSim attempts: True replayed, False fell
    back to the scalar core."""
    outcomes = []

    def counting(schedule, program):
        trace = replay(schedule, program)
        outcomes.append(trace is not None)
        return trace

    monkeypatch.setattr(simulator_module, "replay", counting)
    return outcomes


def _cached_and_scalar(simulator, programs, max_cycles=None):
    """Trace bytes of each program with the cache on, then off."""
    cached = [trace_bytes(simulator.run_trace(program,
                                              max_cycles=max_cycles))
              for program in programs]
    with trace_cache_disabled():
        scalar = [trace_bytes(simulator.run_trace(program,
                                                  max_cycles=max_cycles))
                  for program in programs]
    return cached, scalar


def _random_aes(count, rounds, seed, warm_cache=True):
    rng = np.random.default_rng(seed)
    return [aes_program([int(byte) for byte in rng.integers(0, 256, 16)],
                        [int(byte) for byte in rng.integers(0, 256, 16)],
                        rounds=rounds, warm_cache=warm_cache)
            for _ in range(count)]


def _word_programs(source, words):
    """One separately assembled program per data word list: the same
    code, its own :class:`Instruction` objects and data image."""
    data = ", ".join
    return [assemble(source.format(words=data(str(word & 0xFFFFFFFF)
                                              for word in values)))
            for values in words]


# ---------------------------------------------------------------------------
# replay == scalar core
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("rounds", [1, 2, 10])
def test_aes_replays_equal_the_scalar_core(simulator, replays, rounds):
    # five keys and plaintexts: a recording, then four replays
    programs = _random_aes(5, rounds, seed=rounds)
    cached, scalar = _cached_and_scalar(simulator, programs)
    assert cached == scalar
    assert replays == [True] * 4


def test_cold_cache_aes_diverges_on_sbox_misses(simulator, replays):
    # without the warm-up the S-box hits and misses follow the data
    programs = _random_aes(22, rounds=1, seed=5, warm_cache=False)
    cached, scalar = _cached_and_scalar(simulator, programs)
    assert cached == scalar
    assert replays == [False] * 21


BRANCH = """
.data
value: .word {words}
.text
    la t0, value
    lw t1, 0(t0)
    andi t2, t1, 1
    beqz t2, even
    addi t3, t1, 7
    j done
even:
    slli t3, t1, 2
done:
    sw t3, 4(t0)
    ebreak
"""


def test_data_dependent_branch_replays_only_the_recorded_path(
        simulator, replays):
    # recorded on 5 (odd): the even values take the other path
    programs = _word_programs(BRANCH, [[3], [5], [8], [10], [7], [12], [9]])
    cached, scalar = _cached_and_scalar(simulator, programs)
    assert cached == scalar
    assert replays == [False, False, True, False, True]


MULDIV = """
.data
operands: .word {words}
.text
    la t0, operands
    lw t1, 0(t0)
    lw t2, 4(t0)
    mul t3, t1, t2
    mulh t4, t1, t2
    mulhsu t5, t1, t2
    mulhu t6, t1, t2
    add a0, t3, t4
    div a1, t1, t2
    divu a2, t1, t2
    rem a3, t1, t2
    remu a4, t1, t2
    xor a5, a1, a3
    add a5, a5, t6
    sw a5, 8(t0)
    ebreak
"""


def test_muldiv_family_replays_multi_cycle_execute(simulator, replays):
    words = [[7, 3, 0], [-5, 2, 0], [-2 ** 31, -1, 0], [123456789, 0, 0],
             [-1, -1, 0], [0xDEADBEEF, 0x12345678, 0]]
    programs = _word_programs(MULDIV, words)
    cached, scalar = _cached_and_scalar(simulator, programs)
    assert cached == scalar
    assert replays == [True] * 4
    # the replayed muldiv_hi latch follows each program's operands
    high = [simulator.run_trace(program).values_matrix("E")[:, 4]
            for program in programs]
    assert len({column.tobytes() for column in high}) > 1


WRONG_PATH = """
.data
value: .word {words}
.text
    la t0, value
    lw t1, 0(t0)
    addi t2, t1, 1
    bnez t1, taken
    add t3, t2, t1
    sub t4, t2, t3
taken:
    xor t5, t2, t1
    sw t5, 4(t0)
    ebreak
"""


def test_mispredicted_branch_with_a_fresh_wrong_path_operand(
        simulator, replays):
    # the cold predictor guesses not-taken; the squashed `add` reads t2,
    # written by the instruction just before the branch
    programs = _word_programs(WRONG_PATH, [[5], [9], [17], [33], [65]])
    cached, scalar = _cached_and_scalar(simulator, programs)
    assert cached == scalar
    assert replays == [True, True, True]
    trace = simulator.run_trace(programs[-1])
    assert trace.mispredictions == 1 and trace.flushes


def test_truncated_run_replays_to_the_same_cycle(simulator, replays):
    programs = _random_aes(4, rounds=2, seed=11)
    cached, scalar = _cached_and_scalar(simulator, programs,
                                        max_cycles=400)
    assert cached == scalar
    assert replays == [True] * 3
    assert simulator.run_trace(programs[-1], max_cycles=400).num_cycles \
        == 400


# ---------------------------------------------------------------------------
# when EMSim replays
# ---------------------------------------------------------------------------
def test_disabled_cache_never_records_or_replays(simulator, replays,
                                                 monkeypatch):
    recordings = []
    monkeypatch.setattr(simulator_module, "record",
                        lambda *args: recordings.append(1))
    programs = _random_aes(4, rounds=1, seed=2)
    key = code_family_key(programs[0], DEFAULT_CONFIG, salt=SALT)
    with trace_cache_disabled():
        for program in programs:
            simulator.run_trace(program)
    assert replays == [] and recordings == []
    assert get_trace_cache().family(key) is None


def test_separately_assembled_programs_record_on_the_second_miss(
        simulator, replays, core_runs):
    # one code, no template: a plain run, a recording, then replays
    programs = _word_programs(BRANCH, [[3], [5], [7], [9]])
    cached, scalar = _cached_and_scalar(simulator, programs)
    assert cached == scalar
    assert replays == [True, True]
    # two cached-side core runs, then one per program with the cache off
    assert len(core_runs) == 2 + len(programs)


def test_clear_drops_schedules_and_marks(simulator, replays):
    programs = _random_aes(6, rounds=1, seed=3)
    key = code_family_key(programs[0], DEFAULT_CONFIG, salt=SALT)
    for program in programs[:3]:
        simulator.run_trace(program)
    assert get_trace_cache().family(key) is not None
    configure_trace_cache(clear=True)
    assert get_trace_cache().family(key) is None
    for program in programs[3:]:
        simulator.run_trace(program)
    # a recording and two replays before the clear, and again after it
    assert replays == [True] * 4


def test_replays_and_fallbacks_are_counted(simulator):
    programs = _word_programs(BRANCH, [[3], [5], [8], [7]])
    registry = enable_metrics()
    registry.reset()
    try:
        for program in programs:
            simulator.run_trace(program)
        assert registry.counters["trace_cache.sim.recordings"] == 1
        assert registry.counters["trace_cache.sim.replays"] == 1
        assert registry.counters["trace_cache.sim.replay_fallbacks"] == 1
        registry.reset()
        for program in _random_aes(5, rounds=1, seed=7):
            simulator.run_trace(program)
        assert registry.counters["trace_cache.sim.recordings"] == 1
        assert registry.counters["trace_cache.sim.replays"] == 4
        assert "trace_cache.sim.replay_fallbacks" not in registry.counters
    finally:
        disable_metrics()
        registry.reset()


# ---------------------------------------------------------------------------
# ownership
# ---------------------------------------------------------------------------
def _mutable_parts(trace):
    lists = [trace._instr_table, trace.stalls, trace.cache_events,
             trace.branch_events, trace.flushes, trace.retired,
             trace._stall_rows, trace._cache_rows, trace._branch_rows,
             trace._flush_rows, trace._retire_rows]
    lists += [trace._packed[stage] for stage in STAGES]
    arrays = [trace._vals]
    arrays += [array for by_stage in trace._unpacked().values()
               for array in by_stage.values()]
    return lists, arrays


def test_replays_share_no_mutable_state():
    programs = _random_aes(3, rounds=1, seed=4)
    recorded, schedule = record(programs[0], DEFAULT_CONFIG)
    replayed = [replay(schedule, program) for program in programs[1:]]
    schedule_arrays = [schedule.values, schedule.cells, schedule.sources]
    schedule_arrays += [array for by_stage in schedule.codes.values()
                        for array in by_stage.values()]
    assert not any(array.flags.writeable for array in schedule_arrays)
    for one, other in combinations([recorded] + replayed, 2):
        lists, arrays = _mutable_parts(one)
        other_lists, other_arrays = _mutable_parts(other)
        assert not any(left is right for left in lists
                       for right in other_lists)
        assert not any(np.shares_memory(left, right) for left in arrays
                       for right in other_arrays)
        assert not any(left is right for left, right
                       in zip(one.retired, other.retired))
    for trace in [recorded] + replayed:
        _, arrays = _mutable_parts(trace)
        assert not any(np.shares_memory(left, right) for left in arrays
                       for right in schedule_arrays)


def test_replay_references_the_new_programs_instructions():
    programs = _word_programs(BRANCH, [[3], [5]])
    _, schedule = record(programs[0], DEFAULT_CONFIG)
    trace = replay(schedule, programs[1])
    owned = {id(instr) for instr in programs[1].instructions}
    assert all(id(instr) in owned for instr in trace._instr_table)
    assert all(id(entry.instr) in owned for entry in trace.retired)


def test_replay_declines_a_different_instruction_sharing():
    # nop_padded repeats one NOP object; a copy with an object per
    # address has the same code but a longer instruction table
    shared = nop_padded([Instruction("lw", rd=5, rs1=0, imm=0),
                         Instruction("add", rd=6, rs1=5, rs2=5)])
    distinct = Program(instructions=[
        Instruction(instr.name, instr.rd, instr.rs1, instr.rs2, instr.imm)
        for instr in shared.instructions], data=dict(shared.data))
    _, schedule = record(shared, DEFAULT_CONFIG)
    assert replay(schedule, distinct) is None
    rebound = shared.with_data({0: [1, 2, 3, 4]})
    scalar, _ = run_program(rebound)
    assert trace_bytes(replay(schedule, rebound)) == trace_bytes(scalar)

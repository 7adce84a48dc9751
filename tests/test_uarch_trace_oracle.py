"""Tests for the activity trace, event records, and oracle replay."""

import numpy as np
import pytest

from repro.isa import Instruction, NOP, assemble
from repro.uarch import (OCC_BUBBLE, OCC_INSTR, STAGES, BranchEvent,
                         CacheEvent, FlushEvent, GoldenSimulator,
                         OracleOutcomes, OutOfOrderCore, Pipeline,
                         RetiredInstruction, StallEvent, collect_oracle,
                         run_program, stage_bit_count)
from repro.uarch.trace import StageOccupancy
from repro.workloads import fibonacci, nop_padded

EVENT_LISTS = ("stalls", "cache_events", "branch_events", "flushes",
               "retired")

# a load miss, a load-use multiply and a loop branch mispredicted on its
# first and last iteration: every event kind, on both cores
EVENTFUL = assemble("""
.data
values: .word 5, 7, 9
.text
    la t0, values
    li t1, 3
loop:
    lw t2, 0(t0)
    mul t3, t2, t2
    add t4, t3, t2
    addi t0, t0, 4
    addi t1, t1, -1
    bnez t1, loop
    ebreak
""")


# ----------------------------------------------------------------------
# StageOccupancy
# ----------------------------------------------------------------------
def test_em_class_labels():
    assert StageOccupancy(OCC_BUBBLE).em_class() == "nop"
    assert StageOccupancy("stall", instr=NOP).em_class() == "stall"
    assert StageOccupancy(OCC_INSTR, instr=NOP).em_class() == "nop"
    add = Instruction("add", rd=1, rs1=2, rs2=3)
    assert StageOccupancy(OCC_INSTR, instr=add).em_class() == "alu"
    mul = Instruction("mul", rd=1, rs1=2, rs2=3)
    assert StageOccupancy(OCC_INSTR, instr=mul,
                          dyn="final").em_class() == "muldiv_final"
    load = Instruction("lw", rd=1, rs1=2)
    assert StageOccupancy(OCC_INSTR, instr=load).em_class() == "load"
    assert StageOccupancy(OCC_INSTR, instr=load,
                          dyn="hit").em_class() == "load_cache"
    assert StageOccupancy(OCC_INSTR, instr=load,
                          dyn="miss").em_class() == "load_mem"


def test_occupancy_labels():
    add = Instruction("add", rd=1, rs1=2, rs2=3)
    assert StageOccupancy(OCC_BUBBLE).label() == "bubble"
    assert StageOccupancy(OCC_INSTR, instr=add).label() == "add"
    assert StageOccupancy("stall", instr=add).label() == "add(stall)"
    load = Instruction("lw", rd=1, rs1=2)
    assert StageOccupancy(OCC_INSTR, instr=load,
                          dyn="miss").label() == "lw+miss"


# ----------------------------------------------------------------------
# trace matrices
# ----------------------------------------------------------------------
def test_transition_matrix_shapes_and_caching():
    trace, _ = run_program(fibonacci(5))
    for stage in STAGES:
        matrix = trace.transition_matrix(stage)
        assert matrix.shape == (trace.num_cycles, stage_bit_count(stage))
        assert matrix.dtype == np.uint8
        assert set(np.unique(matrix)) <= {0, 1}
        # cached: identical object on second call
        assert trace.transition_matrix(stage) is matrix


def test_flip_counts_match_transition_sum():
    trace, _ = run_program(fibonacci(5))
    for stage in STAGES:
        assert np.array_equal(trace.flip_counts(stage),
                              trace.transition_matrix(stage).sum(axis=1))


def test_first_cycle_transitions_vs_reset_state():
    trace, _ = run_program(nop_padded([], before=2, after=2))
    # cycle 0: the first fetch flips the F latches away from all-zero
    assert trace.flip_counts("F")[0] > 0
    # downstream stages start as bubbles over a zero state: near-silent
    assert trace.flip_counts("W")[0] <= 6


# ----------------------------------------------------------------------
# event lists are views over recorded rows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("core_class", [Pipeline, OutOfOrderCore],
                         ids=["in-order", "ooo"])
def test_recording_builds_no_event_object(monkeypatch, core_class):
    built = []

    def counting(init):
        def counted(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)
        return counted

    for event_type in (StallEvent, CacheEvent, BranchEvent, FlushEvent,
                       RetiredInstruction):
        monkeypatch.setattr(event_type, "__init__",
                            counting(event_type.__init__))
    trace = core_class(EVENTFUL).run()
    assert built == []
    lists = [getattr(trace, name) for name in EVENT_LISTS]
    assert all(lists)
    assert len(built) == sum(map(len, lists))
    # a second read builds nothing
    assert [getattr(trace, name) for name in EVENT_LISTS] == lists
    assert len(built) == sum(map(len, lists))


@pytest.mark.parametrize("core_class", [Pipeline, OutOfOrderCore],
                         ids=["in-order", "ooo"])
def test_event_lists_read_mid_run_follow_later_rows(core_class):
    fresh = core_class(EVENTFUL).run()
    core = core_class(EVENTFUL)
    for _ in range(fresh.num_cycles // 2):
        core.step()
    early = {name: len(getattr(core.trace, name)) for name in EVENT_LISTS}
    assert early["retired"] and early["cache_events"]
    trace = core.run()
    for name in EVENT_LISTS:
        assert getattr(trace, name) == getattr(fresh, name)
    assert any(len(getattr(trace, name)) > early[name]
               for name in EVENT_LISTS)


def test_cycles_of_covers_multicycle_occupancy():
    program = nop_padded([Instruction("mul", rd=5, rs1=8, rs2=9)])
    trace, _ = run_program(program)
    seq = next(index for index, instr in enumerate(program.instructions)
               if instr.name == "mul")
    assert len(trace.cycles_of(seq, "E")) == 3  # default mul latency


# ----------------------------------------------------------------------
# oracle replay
# ----------------------------------------------------------------------
def test_oracle_outcomes_fifo():
    outcomes = OracleOutcomes()
    outcomes.push(0x10, True, 0x40)
    outcomes.push(0x10, False, 0x14)
    assert len(outcomes) == 2
    assert outcomes.pop(0x10) == (True, 0x40)
    assert outcomes.pop(0x10) == (False, 0x14)
    assert outcomes.pop(0x10) is None
    assert outcomes.pop(0x999) is None


def test_collect_oracle_records_every_control_transfer():
    program = assemble("""
    li t0, 3
loop:
    addi t0, t0, -1
    bnez t0, loop
    j end
    nop
end:
    ebreak
    """)
    oracle = collect_oracle(program)
    golden = GoldenSimulator(program)
    golden.run()
    # 3 dynamic branches + 1 jump
    assert len(oracle) == 4


def test_oracle_replay_eliminates_flushes_but_not_correctness():
    program = fibonacci(9)
    oracle = collect_oracle(program)
    trace, core = run_program(program, oracle=oracle)
    assert trace.mispredictions == 0
    assert core.regfile.peek(10) == 34  # fib(9)

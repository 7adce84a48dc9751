"""Schedule replay: the in-order core's data path over a recorded schedule.

Programs that share their code but not their data image (AES under many
plaintexts, the two groups of a fixed-vs-random TVLA campaign) often run
the same *schedule* on the in-order core: the same dynamic instruction
in the same stage every cycle, the same stalls, flushes and cache
outcomes.  Only the values in the data latches differ.

:func:`record` runs the scalar :class:`~repro.uarch.pipeline.Pipeline`
once with a :class:`~repro.uarch.pipeline.Provenance`.  The core's cycle
loop keeps, inline at each of its data-latch writes, which dynamic
instruction's operand or result each data latch column holds, one row
per cycle next to the trace.  The :class:`Schedule` built from those
rows and the instructions' compiled tuples
(:func:`~repro.uarch.pipeline.compiled`) holds the run's occupancy
codes, its events, its latch values, and, for every data-carrying latch
column in every cycle, the slot of a value table that column holds.

:func:`replay` runs the architectural data path once over the recorded
dynamic stream of another program with the same code.  It checks every
branch and ``jalr`` outcome against the schedule, and every data-cache
hit or miss on a live :class:`~repro.uarch.cache.DataCache` over the new
addresses.  The data columns are then filled by one gather from the
value table.  The result is a columnar
:class:`~repro.uarch.trace.ActivityTrace` equal to what the scalar core
records for that program; at the first divergence :func:`replay`
returns ``None`` and the caller runs the scalar core instead.

Value-table slots: slots ``0..31`` hold the initial register file (slot 0
is also the constant 0 that x0 and absent operands read), and dynamic
instruction ``seq`` owns the three slots from ``32 + 3 * seq``: its ALU
output (the effective address of a load or store), its result (what it
writes back and forwards: load data for a load), and the high word of
a multiply (:func:`~repro.uarch.pipeline.value_slot`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa.instructions import Instruction
from ..isa.program import TEXT_BASE, Program
from .cache import DataCache
from .config import CacheConfig, CoreConfig
from .isa_exec import jalr_target
from .latches import REGISTER_INDEX, TOTAL_REGISTERS
from .memory import MainMemory
from .pipeline import (ALU, BRANCH, DATA_COLUMNS, FIELDS, JALR, LOAD, MULDIV,
                       MULHI, PLAIN, REGISTERS, RESULT, STORE, _FUNCTION,
                       _IMM, _KIND, _WIDTH, Pipeline, Provenance, compiled,
                       value_slot)
from .trace import ActivityTrace

_FLAT_COLUMNS = np.array([REGISTER_INDEX[stage][name][0]
                          for stage, name in DATA_COLUMNS], dtype=np.intp)


def _schedule(trace: ActivityTrace, program: Program, config: CoreConfig,
              provenance: Provenance) -> "Schedule":
    """Freeze a recorded run into a :class:`Schedule`.

    Each executed step is precompiled from its instruction's compiled
    tuple: it carries the step kind, the mnemonic's
    :data:`~repro.uarch.isa_exec.ALU_FUNCTIONS` entry (a branch, its
    :data:`~repro.uarch.isa_exec.BRANCH_CONDITIONS` entry) and the
    immediate, so replaying it reads no instruction.
    """
    instructions = program.instructions
    taken = {seq: was_taken for _, _, was_taken, _, _, _, _, seq
             in trace._branch_rows}
    targets = {seq: target for _, _, _, target, _, _, _, seq
               in trace._branch_rows}
    hits = {seq: hit for _, _, _, hit, seq in trace._cache_rows}
    steps = []
    for seq, pc, first, second in provenance.stream:
        code = compiled(instructions[(pc - TEXT_BASE) >> 2])
        kind = code[_KIND]
        if kind == BRANCH:
            expected = taken[seq]
        elif kind == JALR:
            expected = targets[seq]
        elif kind == LOAD or kind == STORE:
            expected = hits.get(seq)
        else:
            expected = None
        steps.append((kind, code[_FUNCTION], code[_IMM], pc, first, second,
                      value_slot(seq, ALU), code[_WIDTH], expected))
    positions: Dict[int, List[int]] = {}
    for index, instr in enumerate(instructions):
        positions.setdefault(id(instr), []).append(index)
    entries = [positions[id(instr)] for instr in trace._instr_table]
    refs = np.frombuffer(provenance.rows, dtype=np.int64).reshape(
        trace.num_cycles, len(DATA_COLUMNS))
    live = refs >= 0
    rows, columns = np.nonzero(live)
    return Schedule(
        cache=config.cache,
        registers=provenance.registers,
        steps=tuple(steps),
        slots=value_slot(1 + max((seq for seq, _, _, _ in provenance.stream),
                                 default=-1), 0),
        values=_frozen(trace._values_all()),
        cells=_frozen(rows * TOTAL_REGISTERS + _FLAT_COLUMNS[columns]),
        sources=_frozen(refs[live]),
        packed={stage: tuple(column)
                for stage, column in trace._packed.items()},
        codes={column: {stage: _frozen(array)
                        for stage, array in by_stage.items()}
               for column, by_stage in trace._unpacked().items()},
        instructions=tuple(instructions),
        table=tuple(trace._instr_table),
        ids=dict(trace._instr_ids),
        entries=tuple(indices[0] for indices in entries),
        shared=tuple((code, tuple(indices[1:]))
                     for code, indices in enumerate(entries)
                     if len(indices) > 1),
        stalls=tuple(trace._stall_rows),
        branch_events=tuple(trace._branch_rows),
        flushes=tuple(trace._flush_rows),
        cache_events=tuple(trace._cache_rows),
        retired=tuple(trace._retire_rows))


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only copy of ``array``."""
    copy = np.array(array)
    copy.flags.writeable = False
    return copy


@dataclass(frozen=True, eq=False)
class Schedule:
    """One recorded run of the in-order core, replayable over new data.

    Built by :func:`record`; every array is a read-only copy, and
    :func:`replay` copies whatever it hands out.
    """

    cache: CacheConfig
    registers: Tuple[int, ...]
    # executed instructions in order: (step kind, ALU function or branch
    # condition, immediate, pc, rs1 slot, rs2 slot, first slot, access
    # width, recorded outcome: the branch direction, the jalr target, or
    # the cache hit; None for a load or store the run ended before it
    # reached Memory)
    steps: Tuple[tuple, ...]
    slots: int
    values: np.ndarray           # (cycles, TOTAL_REGISTERS) latch values
    cells: np.ndarray            # flat indices of the data-image cells
    sources: np.ndarray          # value-table slot of each such cell
    packed: Dict[str, Tuple[int, ...]]
    codes: Dict[str, Dict[str, np.ndarray]]
    # the recorded program's instructions, and its trace's instruction
    # table with the table's code of each object's id
    instructions: Tuple[Instruction, ...]
    table: Tuple[Instruction, ...]
    ids: Dict[int, int]
    # program index of each instruction-table entry, and the other
    # indices of entries whose object sits at several addresses
    entries: Tuple[int, ...]
    shared: Tuple[Tuple[int, Tuple[int, ...]], ...]
    # event rows, each in its event type's field order
    stalls: Tuple[tuple, ...]
    branch_events: Tuple[tuple, ...]
    flushes: Tuple[tuple, ...]
    cache_events: Tuple[tuple, ...]
    retired: Tuple[tuple, ...]


def record(program: Program, config: CoreConfig,
           max_cycles: Optional[int] = None
           ) -> Tuple[ActivityTrace, Schedule]:
    """Run ``program`` on the scalar core and record its schedule."""
    core = Pipeline(program, config=config)
    core.provenance = provenance = Provenance(core.regfile.dump())
    trace = core.run(max_cycles=max_cycles)
    return trace, _schedule(trace, program, config, provenance)


def _instruction_table(schedule: Schedule,
                       instructions: Sequence[Instruction]
                       ) -> Optional[List[Instruction]]:
    """The new program's objects for each instruction-table entry.

    ``None`` when the program shares its :class:`Instruction` objects
    between addresses differently from the recorded one, since the
    scalar core's table would then differ.
    """
    table = [instructions[index] for index in schedule.entries]
    for code, others in schedule.shared:
        if any(instructions[index] is not table[code] for index in others):
            return None
    if len(set(map(id, table))) != len(table):
        return None
    return table


def replay(schedule: Schedule, program: Program) -> Optional[ActivityTrace]:
    """The trace the scalar core records for ``program``, or ``None``.

    ``program`` must have the code the schedule was recorded from.  The
    data path runs the schedule's precompiled steps; the first branch or
    ``jalr`` outcome or data-cache hit that differs from the schedule
    returns ``None``.  A program that holds the recorded program's own
    :class:`Instruction` objects (every
    :meth:`~repro.isa.program.Program.with_data` copy of one template)
    gets the recorded instruction table and retirement rows as they
    are; any other program's objects take their places.
    """
    instructions = program.instructions
    if len(instructions) == len(schedule.instructions) and all(
            map(is_, instructions, schedule.instructions)):
        table, ids, retired = schedule.table, schedule.ids, schedule.retired
    else:
        table = _instruction_table(schedule, instructions)
        if table is None:
            return None
        ids = None
        retired = [(seq, pc, instructions[(pc - TEXT_BASE) >> 2], cycle)
                   for seq, pc, _, cycle in schedule.retired]
    values = [0] * schedule.slots
    values[:REGISTERS] = schedule.registers
    memory = MainMemory(program.data)
    load, store = memory.load, memory.store
    access = DataCache(schedule.cache).access
    for (kind, function, imm, pc, first, second, slot, width,
         expected) in schedule.steps:
        a, b = values[first], values[second]
        if kind == PLAIN:
            values[slot] = values[slot + RESULT] = function(a, b, imm, pc)
        elif kind == LOAD:
            address = values[slot] = function(a, b, imm, pc)
            if expected is None:
                continue
            if access(address, False) != expected:
                return None
            values[slot + RESULT] = load(address, *width)
        elif kind == STORE:
            address = values[slot] = function(a, b, imm, pc)
            if expected is None:
                continue
            if access(address, True) != expected:
                return None
            store(address, b, width)
        elif kind == BRANCH:
            if function(a, b) != expected:
                return None
        elif kind == MULDIV:
            values[slot + RESULT] = function(a, b, imm, pc)
            values[slot + MULHI] = (a * b) >> 32
        else:
            if jalr_target(a, imm) != expected:
                return None
            values[slot + RESULT] = function(a, b, imm, pc)

    latches = np.array(schedule.values)
    latches.reshape(-1)[schedule.cells] = np.array(
        values, dtype=np.uint64)[schedule.sources]
    trace = ActivityTrace._assemble(latches, schedule.packed, table,
                                    schedule.codes, ids)
    # rows are immutable: a cache access whose address the data did not
    # move is shared with the recording
    cache_rows = []
    for row in schedule.cache_events:
        cycle, recorded, is_store, hit, seq = row
        address = values[REGISTERS + FIELDS * seq + ALU]  # value_slot
        cache_rows.append(row if address == recorded
                          else (cycle, address, is_store, hit, seq))
    trace._extend_events(schedule.stalls, cache_rows,
                         schedule.branch_events, schedule.flushes, retired)
    return trace

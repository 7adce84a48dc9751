"""Schedule replay: the in-order core's data path over a recorded schedule.

Programs that share their code but not their data image (AES under many
plaintexts, the two groups of a fixed-vs-random TVLA campaign) often run
the same *schedule* on the in-order core: the same dynamic instruction
in the same stage every cycle, the same stalls, flushes and cache
outcomes.  Only the values in the data latches differ.

:func:`record` runs the scalar :class:`~repro.uarch.pipeline.Pipeline`
once with a :class:`ScheduleRecorder` attached.  At each of its
data-latch writes the core reports which dynamic instruction's operand
or result the latch now holds, and the recorder snapshots that
provenance every cycle, next to the trace.  The :class:`Schedule` it
builds holds the run's occupancy codes, its events, its latch values,
and, for every data-carrying latch column in every cycle, the slot of a
value table that column holds.

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
a multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa.instructions import Instruction
from ..isa.program import TEXT_BASE, Program
from .cache import DataCache
from .config import CacheConfig, CoreConfig
from .isa_exec import (ALU_FUNCTIONS, BRANCH_CONDITIONS, jalr_target,
                       load_width, store_width)
from .latches import REGISTER_INDEX, TOTAL_REGISTERS, bubble_pattern
from .memory import MainMemory
from .pipeline import Pipeline
from .trace import ActivityTrace

DATA_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("D", "rs1_val"), ("D", "rs2_val"),
    ("E", "alu_a"), ("E", "alu_b"), ("E", "alu_out"),
    ("E", "muldiv_lo"), ("E", "muldiv_hi"),
    ("M", "mem_addr"), ("M", "mem_wdata"), ("M", "mem_rdata"),
    ("W", "wb_data"))
"""The latch registers whose values depend on the data image; every
other register holds the same value in every run of one schedule."""

(_RS1_VAL, _RS2_VAL, _ALU_A, _ALU_B, _ALU_OUT, _MULDIV_LO, _MULDIV_HI,
 _MEM_ADDR, _MEM_WDATA, _MEM_RDATA, _WB_DATA) = range(len(DATA_COLUMNS))

_FLAT_COLUMNS = np.array([REGISTER_INDEX[stage][name][0]
                          for stage, name in DATA_COLUMNS], dtype=np.intp)

# Data columns a bubble write resets to its (data-independent) pattern.
_BUBBLE_RESETS: Dict[str, Tuple[int, ...]] = {
    stage: tuple(index for index, (column_stage, name)
                 in enumerate(DATA_COLUMNS)
                 if column_stage == stage and name in bubble_pattern(stage))
    for stage in ("D", "E", "M", "W")}

_CONSTANT = -1          # the column holds the recorded value
_REGISTERS = 32         # slots of the initial register file
_ALU, _RESULT, _MULHI = range(3)
_FIELDS = 3             # slots per dynamic instruction

# What the data path does for one executed instruction.
_PLAIN, _MULDIV, _LOAD, _STORE, _BRANCH, _JALR = range(6)


def _slot(seq: int, field: int) -> int:
    """Value-table slot of one field of dynamic instruction ``seq``."""
    return _REGISTERS + _FIELDS * seq + field


class ScheduleRecorder:
    """Data-latch provenance of one scalar core run, cycle by cycle.

    The :class:`~repro.uarch.pipeline.Pipeline` calls one method per
    data-latch write (and per bubble write of a stage with data
    columns), so the provenance follows the core's own write sites.
    ``registers`` is the register file the run starts from.
    """

    def __init__(self, registers: Sequence[int]) -> None:
        self.registers = tuple(int(value) for value in registers)
        self._refs: List[int] = [_CONSTANT] * len(DATA_COLUMNS)
        self._rows: List[int] = []
        # slot holding each architectural register's current value
        self._writers: List[int] = list(range(_REGISTERS))
        self._operands: Dict[int, Tuple[int, int]] = {}
        self._stream: List[Tuple[int, int, int, int]] = []

    # -- the core's write sites ------------------------------------------
    def bubble(self, stage: str) -> None:
        """``stage``'s latches snapped to the bubble pattern."""
        for column in _BUBBLE_RESETS[stage]:
            self._refs[column] = _CONSTANT

    def decode(self, seq: int, instr: Instruction,
               producers: Dict[int, Any]) -> None:
        """Decode latched the operands; ``producers`` maps each source
        register to the in-flight uop it was forwarded from (``None``
        for a register-file read)."""
        sources = []
        for reg in (instr.rs1, instr.rs2):
            if reg == 0 or reg not in producers:
                sources.append(0)
            elif producers[reg] is not None:
                sources.append(_slot(producers[reg].seq, _RESULT))
            else:
                sources.append(self._writers[reg])
        self._operands[seq] = (sources[0], sources[1])
        self._refs[_RS1_VAL], self._refs[_RS2_VAL] = sources

    def execute(self, seq: int, pc: int, register_b: bool) -> None:
        """First Execute cycle: ALU inputs latched (operand B is the
        immediate unless ``register_b``)."""
        first, second = self._operands[seq]
        self._stream.append((seq, pc, first, second))
        self._refs[_ALU_A] = first
        self._refs[_ALU_B] = second if register_b else _CONSTANT

    def alu_out(self, seq: Optional[int]) -> None:
        """ALU output latched: ``seq``'s ALU value, or (``None``) a value
        fixed by the PC and the checked control-flow outcome."""
        self._refs[_ALU_OUT] = _CONSTANT if seq is None \
            else _slot(seq, _ALU)

    def muldiv_result(self, seq: int, high: bool) -> None:
        """Final multiply/divide cycle: result (and high word) latched."""
        self._refs[_ALU_OUT] = self._refs[_MULDIV_LO] = _slot(seq, _RESULT)
        if high:
            self._refs[_MULDIV_HI] = _slot(seq, _MULHI)

    def store(self, seq: int) -> None:
        """Store address and data on the memory buses."""
        self._refs[_MEM_ADDR] = _slot(seq, _ALU)
        self._refs[_MEM_WDATA] = self._operands[seq][1]

    def load_address(self, seq: int) -> None:
        """Load address on the memory address bus."""
        self._refs[_MEM_ADDR] = _slot(seq, _ALU)

    def load_data(self, seq: int) -> None:
        """Load data returned on the read-data bus."""
        self._refs[_MEM_RDATA] = _slot(seq, _RESULT)

    def writeback(self, seq: int, rd: Optional[int]) -> None:
        """Writeback latched ``seq``'s result (when it has a destination)
        and committed it to register ``rd``."""
        if rd is None:
            self._refs[_WB_DATA] = _CONSTANT
            return
        self._refs[_WB_DATA] = self._writers[rd] = _slot(seq, _RESULT)

    def end_cycle(self) -> None:
        """Snapshot this cycle's provenance row."""
        self._rows.extend(self._refs)

    # -- the recorded schedule -------------------------------------------
    def schedule(self, trace: ActivityTrace, program: Program,
                 config: CoreConfig) -> "Schedule":
        """Freeze the recorded run into a :class:`Schedule`.

        Each executed step is precompiled: it carries its mnemonic's
        :data:`~repro.uarch.isa_exec.ALU_FUNCTIONS` entry (a branch, its
        :data:`~repro.uarch.isa_exec.BRANCH_CONDITIONS` entry) and its
        immediate, so replaying it reads no instruction.
        """
        instructions = program.instructions
        taken = {seq: was_taken for _, _, was_taken, _, _, _, _, seq
                 in trace._branch_rows}
        targets = {seq: target for _, _, _, target, _, _, _, seq
                   in trace._branch_rows}
        hits = {seq: hit for _, _, _, hit, seq in trace._cache_rows}
        steps = []
        for seq, pc, first, second in self._stream:
            instr = instructions[(pc - TEXT_BASE) >> 2]
            name = instr.name
            kind, function, width, expected = (_PLAIN, ALU_FUNCTIONS[name],
                                               None, None)
            if instr.is_branch:
                kind, function, expected = (_BRANCH, BRANCH_CONDITIONS[name],
                                            taken[seq])
            elif name == "jalr":
                kind, expected = _JALR, targets[seq]
            elif instr.is_load:
                kind, width, expected = _LOAD, load_width(name), hits.get(seq)
            elif instr.is_store:
                kind, width, expected = (_STORE, store_width(name),
                                         hits.get(seq))
            elif instr.is_muldiv:
                kind = _MULDIV
            steps.append((kind, function, instr.imm, pc, first, second,
                          _slot(seq, _ALU), width, expected))
        positions: Dict[int, List[int]] = {}
        for index, instr in enumerate(instructions):
            positions.setdefault(id(instr), []).append(index)
        entries = [positions[id(instr)] for instr in trace._instr_table]
        refs = np.asarray(self._rows, dtype=np.intp).reshape(
            trace.num_cycles, len(DATA_COLUMNS))
        live = refs >= 0
        rows, columns = np.nonzero(live)
        return Schedule(
            cache=config.cache,
            registers=self.registers,
            steps=tuple(steps),
            slots=_slot(1 + max((seq for seq, _, _, _ in self._stream),
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

    Built by :meth:`ScheduleRecorder.schedule`; every array is a
    read-only copy, and :func:`replay` copies whatever it hands out.
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
    recorder = ScheduleRecorder(core.regfile.dump())
    core.recorder = recorder
    trace = core.run(max_cycles=max_cycles)
    return trace, recorder.schedule(trace, program, config)


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
    values[:_REGISTERS] = schedule.registers
    memory = MainMemory(program.data)
    load, store = memory.load, memory.store
    access = DataCache(schedule.cache).access
    for (kind, function, imm, pc, first, second, slot, width,
         expected) in schedule.steps:
        a, b = values[first], values[second]
        if kind == _PLAIN:
            values[slot] = values[slot + _RESULT] = function(a, b, imm, pc)
        elif kind == _LOAD:
            address = values[slot] = function(a, b, imm, pc)
            if expected is None:
                continue
            if access(address, False) != expected:
                return None
            values[slot + _RESULT] = load(address, *width)
        elif kind == _STORE:
            address = values[slot] = function(a, b, imm, pc)
            if expected is None:
                continue
            if access(address, True) != expected:
                return None
            store(address, b, width)
        elif kind == _BRANCH:
            if function(a, b) != expected:
                return None
        elif kind == _MULDIV:
            values[slot + _RESULT] = function(a, b, imm, pc)
            values[slot + _MULHI] = (a * b) >> 32
        else:
            if jalr_target(a, imm) != expected:
                return None
            values[slot + _RESULT] = function(a, b, imm, pc)

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
        address = values[_REGISTERS + _FIELDS * seq + _ALU]  # _slot, inlined
        cache_rows.append(row if address == recorded
                          else (cycle, address, is_store, hit, seq))
    trace._extend_events(schedule.stalls, cache_rows,
                         schedule.branch_events, schedule.flushes, retired)
    return trace

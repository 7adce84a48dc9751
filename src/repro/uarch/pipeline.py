"""Cycle-accurate model of the 5-stage in-order RV32IM core.

This is the processor of HPCA 2020 §II-A: Fetch, Decode, Execute, Memory,
Writeback; 2-level branch predictor with a BTB; 32-entry register file;
32 KB data cache (hit = one extra cycle, miss = two further cycles);
multi-cycle multiply/divide; misprediction resolved at the end of Execute
with two younger instructions flushed to bubbles.

Beyond architectural state, the pipeline maintains the hardware *latch*
model of :mod:`repro.uarch.latches`: stages that do real work update their
latches, stalled stages hold them, and flushed stages snap to the NOP bubble
pattern — producing the per-cycle transition-bit vectors that drive both the
ground-truth EM emitter and EMSim's regression model.

:meth:`Pipeline.run` is one loop over local state.  Each cycle keeps the
stage order of a textbook step: the clock-edge hand-off into Decode, then
Writeback, Memory and Execute, then either the misprediction flush or
Decode and Fetch.  Each :class:`Instruction` is compiled once into a
tuple of what the stages read (:func:`compiled`), memoized on the object
like its encoding.  The 21 latch columns are a list, snapshotted once
per cycle; the occupancy codes and event rows are built in the columnar
:class:`~repro.uarch.trace.ActivityTrace`'s own layout and handed to it
when the call returns.  The core keeps its state between calls, so
:meth:`Pipeline.step` and a capped run followed by another run give the
uncapped trace.  The stage-per-method core this loop replaced, which
records through the trace's per-call protocol, is the differential
oracle in ``tests/oracles.py``.

A core with a :class:`Provenance` also keeps, for each data-latch column
in each cycle, which dynamic instruction's operand or result the column
holds; :mod:`repro.uarch.replay` turns that into a schedule it can
replay for other data images of the same code.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..isa.instructions import NOP, Instruction
from ..isa.program import TEXT_BASE, Program
from .branch import BranchTargetBuffer, make_predictor
from .cache import DataCache
from .config import CoreConfig, DEFAULT_CONFIG
from .events import StallCause
from .isa_exec import (ALU_FUNCTIONS, BRANCH_CONDITIONS, load_width,
                       store_width)
from .latches import (NOP_CONTROL, REGISTER_INDEX, STAGES, TOTAL_REGISTERS,
                      control_word)
from .memory import MainMemory
from .regfile import RegisterFile
from .trace import (ACTIVE_FINAL, ACTIVE_HIT, ACTIVE_MISS, STALLED,
                    STALLED_HIT, STALLED_MISS, ActivityTrace, _INSTR_SHIFT,
                    _PACK_BUBBLE, _SEQ_SHIFT)

MASK32 = 0xFFFFFFFF

# -- compiled instructions --------------------------------------------------
PLAIN, MULDIV, LOAD, STORE, BRANCH, JALR = range(6)
"""Step kinds: what Execute and Memory do with an instruction.  ``jal``,
``ecall``, ``ebreak`` and ``fence`` are plain ALU steps; the schedule
replay's steps carry the same codes."""

# Fields of a compiled instruction (see compiled()).
(_WORD, _CTRL8, _CTRL12, _IMM32, _REGISTER_B, _KIND, _FUNCTION, _SRC1,
 _SRC2, _SOURCES, _DEST, _WIDTH, _HALTS, _IMM, _JAL, _MUL) = range(16)

_COMPILED = "_pipeline_code"


def compiled(instr: Instruction) -> tuple:
    """What the pipeline's stages read of ``instr``, as one tuple.

    In field order: the machine word, the 8- and 12-bit control words,
    the immediate masked to 32 bits, whether operand B is a register,
    the step kind, the :data:`~repro.uarch.isa_exec.ALU_FUNCTIONS` entry
    (a branch: its :data:`~repro.uarch.isa_exec.BRANCH_CONDITIONS`
    entry), the registers rs1 and rs2 read as (0 when not a source),
    the unique sources, the destination, the load ``(bytes, signed)``
    or store byte width, whether it halts fetch, the raw immediate, and
    whether it is ``jal`` and a multiply.  Computed once and memoized on
    the object, as :meth:`Instruction.encode` is, so every program that
    holds the object (every ``Program.with_data`` copy) shares it; an
    instruction pickles without it.
    """
    code = instr.__dict__.get(_COMPILED)
    if code is not None:
        return code
    name = instr.name
    sources = instr.unique_sources
    width = None
    if instr.is_branch:
        kind, function = BRANCH, BRANCH_CONDITIONS[name]
    else:
        function = ALU_FUNCTIONS[name]
        if name == "jalr":
            kind = JALR
        elif instr.is_load:
            kind, width = LOAD, load_width(name)
        elif instr.is_store:
            kind, width = STORE, store_width(name)
        elif instr.is_muldiv:
            kind = MULDIV
        else:
            kind = PLAIN
    code = (instr.encode(), control_word(instr, 8), control_word(instr, 12),
            instr.imm & MASK32, instr.fmt.value in ("R", "S", "B"), kind,
            function, instr.rs1 if instr.rs1 in sources else 0,
            instr.rs2 if instr.rs2 in sources else 0, sources,
            instr.destination_register, width,
            name in ("ecall", "ebreak"), instr.imm, name == "jal",
            name.startswith("mul"))
    object.__setattr__(instr, _COMPILED, code)
    return code


# -- in-flight instructions -------------------------------------------------
# One in-flight dynamic instruction is a list: the Instruction, its
# compiled tuple, pc, sequence number, occupancy tag, fetch prediction
# (taken, target), operand values a and b, result (ALU value, load data
# or link value), whether the result can be forwarded, Execute and Memory
# cycles left (None before the stage's first cycle), the effective
# address, the cache outcome and, in a recording, the value-table slots
# of operands a and b.
(_INSTR, _CODE, _PC, _SEQ, _TAG, _PRED_TAKEN, _PRED_TARGET, _A, _B,
 _RESULT, _READY, _E_LEFT, _M_LEFT, _ADDR, _HIT, _FIRST,
 _SECOND) = range(17)


# -- latch columns ----------------------------------------------------------
def _columns(stage: str) -> Tuple[int, ...]:
    """Flat latch-vector columns of ``stage``'s registers, schema order."""
    return tuple(column for column, _ in REGISTER_INDEX[stage].values())


(_PC_LATCH, _FETCH_INSTR, _PRED_STATE) = _columns("F")
(_DEC_INSTR, _RS1_VAL, _RS2_VAL, _DEC_IMM, _DEC_CTRL) = _columns("D")
(_ALU_A, _ALU_B, _ALU_OUT, _MULDIV_LO, _MULDIV_HI, _EX_CTRL) = _columns("E")
(_MEM_ADDR, _MEM_WDATA, _MEM_RDATA, _MEM_CTRL) = _columns("M")
(_WB_DATA, _WB_RD, _WB_CTRL) = _columns("W")

_NOP_WORD = NOP.encode()
_PRED_STATE_MASK = REGISTER_INDEX["F"]["pred_state"][1]

# -- data provenance --------------------------------------------------------
DATA_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("D", "rs1_val"), ("D", "rs2_val"),
    ("E", "alu_a"), ("E", "alu_b"), ("E", "alu_out"),
    ("E", "muldiv_lo"), ("E", "muldiv_hi"),
    ("M", "mem_addr"), ("M", "mem_wdata"), ("M", "mem_rdata"),
    ("W", "wb_data"))
"""The latch registers whose values depend on the data image; every
other register holds the same value in every run of one schedule."""

(_P_RS1, _P_RS2, _P_ALU_A, _P_ALU_B, _P_ALU_OUT, _P_MULDIV_LO,
 _P_MULDIV_HI, _P_MEM_ADDR, _P_MEM_WDATA, _P_MEM_RDATA,
 _P_WB_DATA) = range(len(DATA_COLUMNS))

CONSTANT = -1
"""The slot of a data column whose value is fixed by the schedule."""

REGISTERS = 32
"""Value-table slots of the initial register file; slot 0 is also the
constant 0 that x0 and absent operands read."""

ALU, RESULT, MULHI = range(3)
"""A dynamic instruction's value-table fields: its ALU output (the
effective address of a load or store), its result (what it writes back
and forwards: load data for a load) and the high word of a multiply."""

FIELDS = 3
"""Value-table slots per dynamic instruction."""


def value_slot(seq: int, field: int) -> int:
    """Value-table slot of one field of dynamic instruction ``seq``."""
    return REGISTERS + FIELDS * seq + field


class Provenance:
    """Which value each data-latch column holds, cycle by cycle.

    A :class:`Pipeline` given one (its ``provenance``) keeps it at every
    data-latch write of its run.  ``rows`` holds one value-table slot per
    :data:`DATA_COLUMNS` entry per cycle (:data:`CONSTANT` for a value the
    schedule fixes), and ``stream`` each executed instruction as ``(seq,
    pc, slot of operand a, slot of operand b)`` in Execute order.
    ``registers`` is the register file the run starts from; ``refs`` and
    ``writers`` are the open cycle's slots and the slot holding each
    architectural register's value.
    """

    __slots__ = ("registers", "rows", "stream", "refs", "writers")

    def __init__(self, registers: Sequence[int]) -> None:
        self.registers = tuple(int(value) for value in registers)
        self.rows = array("q")
        self.stream: List[Tuple[int, int, int, int]] = []
        self.refs = [CONSTANT] * len(DATA_COLUMNS)
        self.writers = list(range(REGISTERS))


class Pipeline:
    """The pipelined core; run a :class:`Program`, get an
    :class:`ActivityTrace` plus final architectural state."""

    def __init__(self, program: Program,
                 config: CoreConfig = DEFAULT_CONFIG,
                 alu_bug: Optional[object] = None,
                 oracle: Optional[object] = None):
        self.program = program
        self.config = config
        self.regfile = RegisterFile()
        self.memory = MainMemory(program.data)
        self.cache = DataCache(config.cache)
        self.predictor = make_predictor(config.predictor,
                                        config.predictor_history_bits,
                                        config.predictor_table_bits)
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.trace = ActivityTrace()
        self.alu_bug = alu_bug   # optional callable(instr, a, b) -> result
        self.oracle = oracle     # optional OracleOutcomes (perfect fetch)
        self.provenance: Optional[Provenance] = None

        self.pc = program.entry
        self.cycle = 0
        self.next_seq = 0
        self.fetch_halted = False
        self.halted = False

        # stage slots (None = empty / bubble) and the latch columns
        self.f_uop: Optional[list] = None
        self.d_uop: Optional[list] = None
        self.e_uop: Optional[list] = None
        self.m_uop: Optional[list] = None
        self.w_uop: Optional[list] = None
        self._latches = [0] * TOTAL_REGISTERS

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> ActivityTrace:
        """Run until the program halts or ``max_cycles`` elapse."""
        limit = max_cycles if max_cycles is not None \
            else self.config.max_cycles
        if not self.halted and self.cycle < limit:
            self._advance(limit)
        return self.trace

    def step(self) -> None:
        """Advance the core by one clock cycle."""
        self._advance(self.cycle + 1)

    # ------------------------------------------------------------------
    # the cycle loop
    # ------------------------------------------------------------------
    def _advance(self, limit: int) -> None:
        """Run cycles until ``limit`` have elapsed, stopping after the
        cycle that halts the core, then hand the new cycles and event
        rows to the trace."""
        config = self.config
        forwarding = config.forwarding
        mul_latency, div_latency = config.mul_latency, config.div_latency
        hit_extra = config.cache.hit_extra_cycles
        miss_extra = hit_extra + config.cache.miss_extra_cycles
        instructions = self.program.instructions
        count = len(instructions)
        regs = self.regfile._values
        access = self.cache.access
        load, store = self.memory.load, self.memory.store
        predictor = self.predictor
        predict, train = predictor.predict, predictor.update
        btb_lookup, btb_update = self.btb.lookup, self.btb.update
        oracle, alu_bug = self.oracle, self.alu_bug
        trace = self.trace
        ids, table = trace._instr_ids, trace._instr_table
        lat = self._latches
        provenance = self.provenance
        recording = provenance is not None
        if recording:
            refs, writers = provenance.refs, provenance.writers
            stream = provenance.stream
        raw_hazard, load_use = StallCause.RAW_HAZARD, StallCause.LOAD_USE
        ex_busy, mem_busy = StallCause.EX_BUSY, StallCause.MEM_BUSY
        cache_miss = StallCause.CACHE_MISS

        pc, cycle, next_seq = self.pc, self.cycle, self.next_seq
        fetch_halted, halted = self.fetch_halted, self.halted
        f, d, e, m, w = (self.f_uop, self.d_uop, self.e_uop, self.m_uop,
                         self.w_uop)
        # the predictor's state signature, shifted into the pred_state
        # latch; it changes only when the predictor trains
        signature = predictor.state_signature() << 1

        values = array("Q")
        packed: Tuple[List[int], ...] = tuple([] for _ in STAGES)
        pack_f, pack_d, pack_e, pack_m, pack_w = (column.append
                                                  for column in packed)
        stalls: List[tuple] = []
        cache_rows: List[tuple] = []
        branch_rows: List[tuple] = []
        flush_rows: List[tuple] = []
        retire_rows: List[tuple] = []
        stall, cache_row = stalls.append, cache_rows.append

        while cycle < limit:
            # clock edge: the instruction fetched last cycle enters
            # Decode if the slot was vacated
            if d is None and f is not None:
                d = f
                f = None
            occ_f = occ_d = occ_e = occ_m = occ_w = _PACK_BUBBLE

            # -- Writeback ---------------------------------------------------
            if w is None:
                lat[_WB_DATA] = lat[_WB_RD] = lat[_WB_CTRL] = 0
                if recording:
                    refs[_P_WB_DATA] = CONSTANT
            else:
                rd = w[_CODE][_DEST]
                if rd is None:
                    lat[_WB_DATA] = lat[_WB_RD] = lat[_WB_CTRL] = 0
                    if recording:
                        refs[_P_WB_DATA] = CONSTANT
                else:
                    value = w[_RESULT] & MASK32
                    regs[rd] = value
                    lat[_WB_DATA] = value
                    lat[_WB_RD] = rd
                    lat[_WB_CTRL] = 1
                    if recording:
                        refs[_P_WB_DATA] = writers[rd] = \
                            REGISTERS + FIELDS * w[_SEQ] + RESULT
                occ_w = w[_TAG]                             # ACTIVE
                retire_rows.append((w[_SEQ], w[_PC], w[_INSTR], cycle))
                if w[_CODE][_HALTS]:
                    fetch_halted = True
                w = None

            # -- Memory ------------------------------------------------------
            if m is None:
                lat[_MEM_ADDR] = lat[_MEM_WDATA] = lat[_MEM_CTRL] = 0
                if recording:
                    refs[_P_MEM_ADDR] = refs[_P_MEM_WDATA] = CONSTANT
                mem_free = True
            else:
                code = m[_CODE]
                left = m[_M_LEFT]
                if left is None:
                    kind = code[_KIND]
                    if kind == LOAD or kind == STORE:
                        # first Memory cycle: cache access and data move
                        address = m[_ADDR]
                        is_store = kind == STORE
                        hit = access(address, is_store)
                        m[_HIT] = hit
                        left = hit_extra if hit else miss_extra
                        cache_row((cycle, address, is_store, hit, m[_SEQ]))
                        lat[_MEM_ADDR] = address & MASK32
                        lat[_MEM_CTRL] = code[_CTRL8]
                        if recording:
                            refs[_P_MEM_ADDR] = \
                                REGISTERS + FIELDS * m[_SEQ] + ALU
                        if is_store:
                            store(address, m[_B], code[_WIDTH])
                            lat[_MEM_WDATA] = m[_B] & MASK32
                            if recording:
                                refs[_P_MEM_WDATA] = m[_SECOND]
                        else:
                            nbytes, signed = code[_WIDTH]
                            value = m[_RESULT] = load(address, nbytes,
                                                      signed)
                            if left == 0:
                                lat[_MEM_RDATA] = value & MASK32
                                m[_READY] = True
                                if recording:
                                    refs[_P_MEM_RDATA] = \
                                        REGISTERS + FIELDS * m[_SEQ] + RESULT
                        occ_m = m[_TAG] | (ACTIVE_HIT if hit
                                           else ACTIVE_MISS)
                    else:
                        lat[_MEM_CTRL] = code[_CTRL8]
                        occ_m = m[_TAG]                     # ACTIVE
                        left = 0
                else:
                    left -= 1
                    if m[_HIT] is False:
                        occ_m = m[_TAG] | STALLED_MISS
                        stall((cycle, "M", cache_miss, m[_SEQ]))
                    else:
                        occ_m = m[_TAG] | STALLED_HIT
                        stall((cycle, "M", mem_busy, m[_SEQ]))
                    if left == 0 and code[_KIND] == LOAD:
                        # data-return flip on the read-data bus
                        lat[_MEM_RDATA] = m[_RESULT] & MASK32
                        m[_READY] = True
                        if recording:
                            refs[_P_MEM_RDATA] = \
                                REGISTERS + FIELDS * m[_SEQ] + RESULT
                m[_M_LEFT] = left
                if left == 0:
                    w = m
                    m = None
                    mem_free = True
                else:
                    mem_free = False

            # -- Execute -----------------------------------------------------
            redirect = None
            if e is None:
                lat[_ALU_A] = lat[_ALU_B] = lat[_ALU_OUT] = lat[_EX_CTRL] = 0
                if recording:
                    refs[_P_ALU_A] = refs[_P_ALU_B] = refs[_P_ALU_OUT] = \
                        CONSTANT
                exec_free = True
            else:
                left = e[_E_LEFT]
                if left is None:
                    # first Execute cycle: compute, resolve control flow
                    code = e[_CODE]
                    a, b, epc, seq = e[_A], e[_B], e[_PC], e[_SEQ]
                    register_b = code[_REGISTER_B]
                    lat[_ALU_A] = a & MASK32
                    lat[_ALU_B] = (b & MASK32) if register_b \
                        else code[_IMM32]
                    lat[_EX_CTRL] = code[_CTRL8]
                    if recording:
                        first, second = e[_FIRST], e[_SECOND]
                        stream.append((seq, epc, first, second))
                        refs[_P_ALU_A] = first
                        refs[_P_ALU_B] = second if register_b else CONSTANT
                    occ_e = e[_TAG]                         # ACTIVE
                    kind = code[_KIND]
                    left = 0
                    if kind == BRANCH or kind == JALR:
                        fall_through = (epc + 4) & MASK32
                        if kind == BRANCH:
                            taken = code[_FUNCTION](a, b)
                            target = (epc + code[_IMM]) & MASK32
                            lat[_ALU_OUT] = target if taken else 0
                        else:
                            taken = True
                            target = (a + code[_IMM]) & ~1 & MASK32
                            e[_RESULT] = fall_through
                            lat[_ALU_OUT] = fall_through
                        e[_READY] = True
                        if recording:  # fixed by the checked outcome
                            refs[_P_ALU_OUT] = CONSTANT
                        # resolve against the fetch prediction
                        actual = target if taken else fall_through
                        pred_taken, pred_target = (e[_PRED_TAKEN],
                                                   e[_PRED_TARGET])
                        mispredicted = (taken != pred_taken) or (
                            taken and (pred_target if pred_taken
                                       else fall_through) != actual)
                        if kind == BRANCH:
                            train(epc, taken)
                            signature = predictor.state_signature() << 1
                        if taken:
                            btb_update(epc, target)
                        branch_rows.append((cycle, epc, taken, actual,
                                            pred_taken, pred_target,
                                            mispredicted, seq))
                        if mispredicted:
                            redirect = actual
                    else:
                        result = None
                        if alu_bug is not None:
                            result = alu_bug(e[_INSTR], a, b)
                            if result is not None:
                                result &= MASK32
                        if result is None:
                            result = code[_FUNCTION](a, b, code[_IMM], epc)
                        e[_RESULT] = result
                        if kind == MULDIV:
                            left = (mul_latency if code[_MUL]
                                    else div_latency) - 1
                            if left == 0:
                                lat[_ALU_OUT] = lat[_MULDIV_LO] = \
                                    result & MASK32
                                e[_READY] = True
                                if recording:
                                    refs[_P_ALU_OUT] = refs[_P_MULDIV_LO] = \
                                        REGISTERS + FIELDS * seq + RESULT
                        else:
                            lat[_ALU_OUT] = result & MASK32
                            if recording:
                                refs[_P_ALU_OUT] = \
                                    REGISTERS + FIELDS * seq + ALU
                            if kind == LOAD or kind == STORE:
                                # only the effective address so far: load
                                # data is forwardable once Memory has it
                                e[_ADDR] = result
                            else:
                                e[_READY] = True
                    e[_E_LEFT] = left
                    exec_free = left == 0 and mem_free
                elif left == 0:
                    # finished earlier, waiting for the Memory stage
                    occ_e = e[_TAG] | STALLED
                    exec_free = mem_free
                    if not mem_free:
                        stall((cycle, "E", mem_busy, e[_SEQ]))
                else:
                    left -= 1
                    e[_E_LEFT] = left
                    if left == 0:
                        # final multiply/divide cycle: result registers
                        # switch
                        result = e[_RESULT] & MASK32
                        lat[_ALU_OUT] = lat[_MULDIV_LO] = result
                        lat[_MULDIV_HI] = ((e[_A] * e[_B]) >> 32) & MASK32
                        e[_READY] = True
                        if recording:
                            refs[_P_ALU_OUT] = refs[_P_MULDIV_LO] = \
                                REGISTERS + FIELDS * e[_SEQ] + RESULT
                            refs[_P_MULDIV_HI] = \
                                REGISTERS + FIELDS * e[_SEQ] + MULHI
                        occ_e = e[_TAG] | ACTIVE_FINAL
                        exec_free = mem_free
                    else:
                        occ_e = e[_TAG] | STALLED
                        stall((cycle, "E", ex_busy, e[_SEQ]))
                        exec_free = False
                if exec_free:  # Memory is free: advance into it
                    m = e
                    e = None

            if redirect is not None:
                # misprediction: squash the instruction in Decode and
                # this cycle's (suppressed) fetch, the 2-cycle penalty;
                # both stay bubbles and their latches snap to the bubble
                # pattern
                flush_rows.append((cycle, 1 + (d is not None) +
                                   (f is not None), redirect))
                d = f = None
                lat[_DEC_INSTR] = _NOP_WORD
                lat[_RS1_VAL] = lat[_RS2_VAL] = lat[_DEC_IMM] = 0
                lat[_DEC_CTRL] = NOP_CONTROL
                lat[_FETCH_INSTR] = _NOP_WORD
                lat[_PRED_STATE] = 0
                if recording:
                    refs[_P_RS1] = refs[_P_RS2] = CONSTANT
                pc = redirect
                fetch_halted = False  # wrong path may have run off the end
            else:
                # -- Decode --------------------------------------------------
                jump = None
                if d is None:
                    lat[_DEC_INSTR] = _NOP_WORD
                    lat[_RS1_VAL] = lat[_RS2_VAL] = lat[_DEC_IMM] = 0
                    lat[_DEC_CTRL] = NOP_CONTROL
                    if recording:
                        refs[_P_RS1] = refs[_P_RS2] = CONSTANT
                elif not exec_free:
                    occ_d = d[_TAG] | STALLED
                    stall((cycle, "D",
                           ex_busy if e[_E_LEFT] > 0 else mem_busy,
                           d[_SEQ]))
                else:
                    # operands, scanning the in-flight producers
                    # youngest-first (Execute is empty here, so Memory
                    # then Writeback) before the register file
                    code = d[_CODE]
                    src1, src2 = code[_SRC1], code[_SRC2]
                    a = b = first = second = 0
                    for reg in code[_SOURCES]:
                        value = slot = 0
                        if reg:
                            if m is not None and m[_CODE][_DEST] == reg:
                                holder = m
                            elif w is not None and w[_CODE][_DEST] == reg:
                                holder = w
                            else:
                                holder = None
                            if holder is None:
                                value = regs[reg]
                                if recording:
                                    slot = writers[reg]
                            elif not forwarding:
                                cause = raw_hazard
                                break
                            elif holder[_READY]:
                                value = holder[_RESULT]
                                slot = REGISTERS + FIELDS * holder[_SEQ] + \
                                    RESULT
                            else:
                                cause = load_use \
                                    if holder[_CODE][_KIND] == LOAD \
                                    else raw_hazard
                                break
                        if reg == src1:
                            a, first = value, slot
                        if reg == src2:
                            b, second = value, slot
                    else:
                        cause = None
                    if cause is not None:
                        occ_d = d[_TAG] | STALLED
                        stall((cycle, "D", cause, d[_SEQ]))
                    else:
                        lat[_DEC_INSTR] = code[_WORD]
                        lat[_RS1_VAL] = a & MASK32
                        lat[_RS2_VAL] = b & MASK32
                        lat[_DEC_IMM] = code[_IMM32]
                        lat[_DEC_CTRL] = code[_CTRL12]
                        d[_A] = a
                        d[_B] = b
                        if recording:
                            d[_FIRST] = refs[_P_RS1] = first
                            d[_SECOND] = refs[_P_RS2] = second
                        occ_d = d[_TAG]                     # ACTIVE
                        e = d
                        d = None
                        if code[_JAL]:
                            dpc = e[_PC]
                            target = (dpc + code[_IMM]) & MASK32
                            e[_RESULT] = (dpc + 4) & MASK32
                            e[_READY] = True
                            btb_update(dpc, target)
                            if not (e[_PRED_TAKEN]
                                    and e[_PRED_TARGET] == target):
                                # redirect fetch, squash 1 instruction
                                jump = target

                # -- Fetch ---------------------------------------------------
                if jump is not None:
                    f = None
                    lat[_FETCH_INSTR] = _NOP_WORD
                    lat[_PRED_STATE] = 0
                    pc = jump
                    fetch_halted = False  # squashed fetch may have halted
                elif f is not None:
                    # Decode is still occupied: the fetched one waits
                    occ_f = f[_TAG] | STALLED
                    stall((cycle, "F", raw_hazard, f[_SEQ]))
                else:
                    offset = pc - TEXT_BASE
                    if fetch_halted or offset < 0 or offset & 3 or \
                            offset >> 2 >= count:
                        fetch_halted = True
                        lat[_FETCH_INSTR] = _NOP_WORD
                        lat[_PRED_STATE] = 0
                    else:
                        instr = instructions[offset >> 2]
                        code = instr.__dict__.get(_COMPILED) or \
                            compiled(instr)
                        seq = next_seq
                        next_seq += 1
                        # the trace's tag (ActivityTrace.tag), inlined
                        number = ids.get(id(instr))
                        if number is None:
                            table.append(instr)
                            number = ids[id(instr)] = len(table)
                        tag = (number << _INSTR_SHIFT) | \
                            ((seq + 1) << _SEQ_SHIFT)
                        # fetch-time prediction: oracle, else predictor
                        # and BTB
                        pred_taken, pred_target = False, None
                        kind = code[_KIND]
                        if kind == BRANCH or kind == JALR or code[_JAL]:
                            outcome = None if oracle is None \
                                else oracle.pop(pc)
                            if outcome is not None:
                                pred_taken, pred_target = outcome
                            else:
                                pred_target = btb_lookup(pc)
                                pred_taken = (predict(pc)
                                              and pred_target is not None) \
                                    if kind == BRANCH \
                                    else pred_target is not None
                        lat[_PC_LATCH] = pc & MASK32
                        lat[_FETCH_INSTR] = code[_WORD]
                        lat[_PRED_STATE] = (pred_taken | signature) & \
                            _PRED_STATE_MASK
                        occ_f = tag                         # ACTIVE
                        f = [instr, code, pc, seq, tag, pred_taken,
                             pred_target, 0, 0, 0, False, None, None, 0,
                             None, 0, 0]
                        pc = pred_target if (pred_taken and
                                             pred_target is not None) \
                            else (pc + 4) & MASK32
                        if code[_HALTS]:
                            fetch_halted = True

            pack_f(occ_f)
            pack_d(occ_d)
            pack_e(occ_e)
            pack_m(occ_m)
            pack_w(occ_w)
            values.extend(lat)
            if recording:
                provenance.rows.extend(refs)
            cycle += 1
            if fetch_halted and f is None and d is None and e is None \
                    and m is None and w is None:
                halted = True
                break

        self.pc, self.cycle, self.next_seq = pc, cycle, next_seq
        self.fetch_halted, self.halted = fetch_halted, halted
        self.f_uop, self.d_uop, self.e_uop, self.m_uop, self.w_uop = \
            f, d, e, m, w
        trace._extend_cycles(
            np.frombuffer(values, dtype=np.uint64).reshape(
                -1, TOTAL_REGISTERS), packed)
        trace._extend_events(stalls, cache_rows, branch_rows, flush_rows,
                             retire_rows)


def run_program(program: Program, config: CoreConfig = DEFAULT_CONFIG,
                max_cycles: Optional[int] = None,
                alu_bug: Optional[object] = None,
                oracle: Optional[object] = None
                ) -> Tuple[ActivityTrace, Pipeline]:
    """Convenience: run ``program`` on a fresh core, return (trace, core)."""
    core = Pipeline(program, config=config, alu_bug=alu_bug, oracle=oracle)
    trace = core.run(max_cycles=max_cycles)
    return trace, core

"""Bit-level model of the pipeline's hardware latches.

EMSim's activity-factor regression (Eq. 8) runs over "a vector of transition
bits across all the existing registers in the targeted pipeline stage".  This
module fixes the register schema of each stage — names and bit widths — and
tracks the latch values cycle by cycle so transition vectors can be derived.

The schema below corresponds to a textbook 5-stage implementation of the
paper's core: fetch PC/instruction word, decode operand/immediate latches,
execute ALU input/output and multiply unit registers, memory address/data
buses, and the writeback port.

:class:`HardwareLatches` stores the whole pipeline's latch state in one
flat ``uint64`` vector, with every per-register index, width mask, and
bubble pattern precomputed at import time — a latch write is a table lookup
plus one array store, and the columnar activity trace snapshots the entire
pipeline with a single row copy.  The out-of-order core writes through it;
the in-order :class:`~repro.uarch.pipeline.Pipeline` keeps the same 21
columns as a list inside its cycle loop.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..isa.instructions import NOP, Instruction

STAGES: Tuple[str, ...] = ("F", "D", "E", "M", "W")
"""Pipeline stage labels: Fetch, Decode, Execute, Memory, Writeback."""

STAGE_REGISTERS: Dict[str, Tuple[Tuple[str, int], ...]] = {
    "F": (("pc", 32), ("fetch_instr", 32), ("pred_state", 4)),
    "D": (("dec_instr", 32), ("rs1_val", 32), ("rs2_val", 32),
          ("dec_imm", 32), ("dec_ctrl", 12)),
    "E": (("alu_a", 32), ("alu_b", 32), ("alu_out", 32),
          ("muldiv_lo", 32), ("muldiv_hi", 32), ("ex_ctrl", 8)),
    "M": (("mem_addr", 32), ("mem_wdata", 32), ("mem_rdata", 32),
          ("mem_ctrl", 8)),
    "W": (("wb_data", 32), ("wb_rd", 5), ("wb_ctrl", 2)),
}
"""Per-stage latch schema: ordered (name, bit width) pairs."""


def stage_bit_count(stage: str) -> int:
    """Total latch bits tracked for ``stage``."""
    return sum(width for _, width in STAGE_REGISTERS[stage])


def stage_register_offsets(stage: str) -> Dict[str, Tuple[int, int]]:
    """Map register name -> (bit offset, width) inside the stage vector."""
    offsets = {}
    position = 0
    for name, width in STAGE_REGISTERS[stage]:
        offsets[name] = (position, width)
        position += width
    return offsets


TOTAL_BITS = sum(stage_bit_count(stage) for stage in STAGES)
"""Latch bits tracked across the whole pipeline."""

TOTAL_REGISTERS = sum(len(STAGE_REGISTERS[stage]) for stage in STAGES)
"""Registers tracked across the whole pipeline (columns of the flat
latch vector, in ``STAGES`` × schema order)."""


def _build_flat_tables():
    """Precompute the flat-vector layout tables once, at import time.

    Returns ``(stage_slices, register_index)`` where ``stage_slices``
    maps each stage to its column :class:`slice` of the flat latch
    vector and ``register_index`` maps each stage to a
    ``name -> (flat column, width mask)`` table.  These tables replace
    the per-write ``dict(STAGE_REGISTERS[stage])`` rebuild the seed
    implementation paid on every latch update.
    """
    stage_slices: Dict[str, slice] = {}
    register_index: Dict[str, Dict[str, Tuple[int, int]]] = {}
    column = 0
    for stage in STAGES:
        start = column
        table: Dict[str, Tuple[int, int]] = {}
        for name, width in STAGE_REGISTERS[stage]:
            table[name] = (column, (1 << width) - 1)
            column += 1
        stage_slices[stage] = slice(start, column)
        register_index[stage] = table
    return stage_slices, register_index


STAGE_SLICES, REGISTER_INDEX = _build_flat_tables()
"""Flat-vector layout: per-stage column slices and per-register
``name -> (column, mask)`` tables, fixed at import time."""


def control_word(instr: Instruction, bits: int) -> int:
    """Instruction-dependent control-signal pattern, ``bits`` wide.

    Derived from the static opcode fields so that different instruction
    kinds toggle different control wires, as decode logic would.  The
    pattern depends only on the mnemonic, so it is memoized per
    ``(mnemonic, bits)`` — the pipeline recomputes it for every latch
    write of every cycle.
    """
    cached = _CONTROL_WORDS.get((instr.name, bits))
    if cached is not None:
        return cached
    spec = instr.spec
    raw = spec.opcode | (spec.funct3 << 7) | (spec.funct7 << 10)
    raw ^= raw >> 7
    word = raw & ((1 << bits) - 1)
    _CONTROL_WORDS[(instr.name, bits)] = word
    return word


_CONTROL_WORDS: Dict[Tuple[str, int], int] = {}

NOP_CONTROL = control_word(NOP, 12)
"""Decode control pattern of the canonical NOP / pipeline bubble."""


def bubble_pattern(stage: str) -> Dict[str, int]:
    """Latch values representing a NOP bubble occupying ``stage``."""
    if stage == "F":
        return {"fetch_instr": NOP.encode(), "pred_state": 0}
    if stage == "D":
        return {"dec_instr": NOP.encode(), "rs1_val": 0, "rs2_val": 0,
                "dec_imm": 0, "dec_ctrl": NOP_CONTROL}
    if stage == "E":
        return {"alu_a": 0, "alu_b": 0, "alu_out": 0, "ex_ctrl": 0}
    if stage == "M":
        return {"mem_addr": 0, "mem_wdata": 0, "mem_ctrl": 0}
    if stage == "W":
        return {"wb_data": 0, "wb_rd": 0, "wb_ctrl": 0}
    raise ValueError(f"unknown stage {stage!r}")


def _build_bubble_tables():
    """Precompute per-stage (flat columns, values) bubble write pairs."""
    indices: Dict[str, np.ndarray] = {}
    values: Dict[str, np.ndarray] = {}
    for stage in STAGES:
        pattern = bubble_pattern(stage)
        table = REGISTER_INDEX[stage]
        columns = [table[name][0] for name in pattern]
        indices[stage] = np.asarray(columns, dtype=np.intp)
        values[stage] = np.asarray(list(pattern.values()), dtype=np.uint64)
    return indices, values


_BUBBLE_COLUMNS, _BUBBLE_VALUES = _build_bubble_tables()


def _column(stage: str, name: str) -> int:
    return REGISTER_INDEX[stage][name][0]


def _mask(stage: str, name: str) -> int:
    return REGISTER_INDEX[stage][name][1]


# Flat columns of the registers on the per-cycle fast path.  The
# specialized ``write_*`` methods below store through these constants
# positionally — no kwargs dict, no name lookup — because the
# out-of-order core hits them once per stage per cycle.
_C_PC = _column("F", "pc")
_C_FETCH_INSTR = _column("F", "fetch_instr")
_C_PRED_STATE = _column("F", "pred_state")
_C_DEC_INSTR = _column("D", "dec_instr")
_C_RS1_VAL = _column("D", "rs1_val")
_C_RS2_VAL = _column("D", "rs2_val")
_C_DEC_IMM = _column("D", "dec_imm")
_C_DEC_CTRL = _column("D", "dec_ctrl")
_C_ALU_A = _column("E", "alu_a")
_C_ALU_B = _column("E", "alu_b")
_C_ALU_OUT = _column("E", "alu_out")
_C_EX_CTRL = _column("E", "ex_ctrl")
_C_MEM_RDATA = _column("M", "mem_rdata")
_C_WB_DATA = _column("W", "wb_data")
_C_WB_RD = _column("W", "wb_rd")
_C_WB_CTRL = _column("W", "wb_ctrl")

_M32 = 0xFFFFFFFF
_M_PRED_STATE = _mask("F", "pred_state")
_M_DEC_CTRL = _mask("D", "dec_ctrl")
_M_EX_CTRL = _mask("E", "ex_ctrl")
_M_WB_RD = _mask("W", "wb_rd")
_M_WB_CTRL = _mask("W", "wb_ctrl")


class HardwareLatches:
    """Current value of every tracked latch, with per-stage update guards.

    The out-of-order core calls :meth:`write` for stages that do real
    work in a cycle; stalled stages are simply not written, so their
    latches hold their values and contribute no transitions — exactly
    the physical behaviour the paper attributes to stalls ("due to this
    preservation no bit-flips occur in the stalled stages", §IV).

    State lives in one flat ``uint64`` vector of :data:`TOTAL_REGISTERS`
    columns (stage order, schema order within a stage); the columnar
    :class:`~repro.uarch.trace.ActivityTrace` snapshots it per cycle with
    a single vectorized row copy via :meth:`flat_values`.
    """

    __slots__ = ("_flat",)

    def __init__(self) -> None:
        self._flat = np.zeros(TOTAL_REGISTERS, dtype=np.uint64)

    def write(self, stage: str, **updates: int) -> None:
        """Set latch values for ``stage``; values are masked to width."""
        flat = self._flat
        table = REGISTER_INDEX[stage]
        for name, value in updates.items():
            column, mask = table[name]
            flat[column] = value & mask

    # -- specialized per-cycle writers -----------------------------------
    # One method per fixed-shape hot write site; each stores positionally
    # through precomputed column constants.  Rare or variable-shape
    # updates (multiply/divide results, memory addresses) stay on the
    # generic :meth:`write`.

    def write_fetch(self, pc: int, instr_word: int,
                    pred_state: int) -> None:
        """Fetch-stage latches: PC, instruction word, predictor state."""
        flat = self._flat
        flat[_C_PC] = pc & _M32
        flat[_C_FETCH_INSTR] = instr_word & _M32
        flat[_C_PRED_STATE] = pred_state & _M_PRED_STATE

    def write_decode(self, instr_word: int, rs1_val: int, rs2_val: int,
                     imm: int, ctrl: int) -> None:
        """Decode-stage latches: instruction word, operands, control."""
        flat = self._flat
        flat[_C_DEC_INSTR] = instr_word & _M32
        flat[_C_RS1_VAL] = rs1_val & _M32
        flat[_C_RS2_VAL] = rs2_val & _M32
        flat[_C_DEC_IMM] = imm & _M32
        flat[_C_DEC_CTRL] = ctrl & _M_DEC_CTRL

    def write_execute_out(self, alu_a: int, alu_b: int, alu_out: int,
                          ctrl: int) -> None:
        """Execute-stage inputs, single-cycle result, and control word."""
        flat = self._flat
        flat[_C_ALU_A] = alu_a & _M32
        flat[_C_ALU_B] = alu_b & _M32
        flat[_C_ALU_OUT] = alu_out & _M32
        flat[_C_EX_CTRL] = ctrl & _M_EX_CTRL

    def write_mem_rdata(self, value: int) -> None:
        """The memory read-data bus alone (load data return)."""
        self._flat[_C_MEM_RDATA] = value & _M32

    def write_writeback(self, data: int, rd: int, ctrl: int) -> None:
        """Writeback-stage latches: result data, destination, control."""
        flat = self._flat
        flat[_C_WB_DATA] = data & _M32
        flat[_C_WB_RD] = rd & _M_WB_RD
        flat[_C_WB_CTRL] = ctrl & _M_WB_CTRL

    def write_bubble(self, stage: str) -> None:
        """Drive a stage's latches to the pipeline-bubble (NOP) pattern."""
        self._flat[_BUBBLE_COLUMNS[stage]] = _BUBBLE_VALUES[stage]

    def flat_values(self) -> np.ndarray:
        """The live flat latch vector (all stages, schema order).

        Callers must treat the returned array as read-only: it is the
        latches' own storage, exposed so the trace can copy one row per
        cycle without building intermediate tuples.
        """
        return self._flat

    def values(self, stage: str) -> Tuple[int, ...]:
        """Current latch values of ``stage`` in schema order."""
        return tuple(int(value)
                     for value in self._flat[STAGE_SLICES[stage]])

    def value(self, stage: str, name: str) -> int:
        """Current value of one named latch."""
        return int(self._flat[REGISTER_INDEX[stage][name][0]])


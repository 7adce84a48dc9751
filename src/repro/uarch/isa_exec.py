"""Architectural semantics of RV32IM instructions.

Pure functions implementing the user-level semantics (ALU operations,
multiply/divide, branch conditions, effective addresses) on unsigned 32-bit
integers, plus :class:`GoldenSimulator`, a simple sequential interpreter used
as the reference model when testing the pipelined core.  Each mnemonic's
ALU result and each branch's condition is one entry of a table
(:data:`ALU_FUNCTIONS`, :data:`BRANCH_CONDITIONS`); both cores, the
schedule replay and :class:`GoldenSimulator` share them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..isa.encoding import sign_extend
from ..isa.instructions import Instruction
from ..isa.program import TEXT_BASE, Program
from ..isa.spec import OPCODES, InstrClass
from ..robustness.errors import AssemblerError

MASK32 = 0xFFFFFFFF


def _signed(value: int) -> int:
    return sign_extend(value, 32)


AluFunction = Callable[[int, int, int, int], int]
"""One mnemonic's ALU semantics: ``(a, b, imm, pc) -> result``."""


# -- the ALU table's entries ---------------------------------------------
# Module-level functions of (a, b, imm, pc), so that whatever holds one
# (a replay schedule's steps) holds no closure.
def _add(a: int, b: int, imm: int, pc: int) -> int:
    return (a + b) & MASK32


def _addi(a: int, b: int, imm: int, pc: int) -> int:
    return (a + imm) & MASK32


def _sub(a: int, b: int, imm: int, pc: int) -> int:
    return (a - b) & MASK32


def _and(a: int, b: int, imm: int, pc: int) -> int:
    return a & b


def _andi(a: int, b: int, imm: int, pc: int) -> int:
    return a & (imm & MASK32)


def _or(a: int, b: int, imm: int, pc: int) -> int:
    return a | b


def _ori(a: int, b: int, imm: int, pc: int) -> int:
    return a | (imm & MASK32)


def _xor(a: int, b: int, imm: int, pc: int) -> int:
    return a ^ b


def _xori(a: int, b: int, imm: int, pc: int) -> int:
    return a ^ (imm & MASK32)


def _slt(a: int, b: int, imm: int, pc: int) -> int:
    return 1 if _signed(a) < _signed(b) else 0


def _slti(a: int, b: int, imm: int, pc: int) -> int:
    return 1 if _signed(a) < imm else 0


def _sltu(a: int, b: int, imm: int, pc: int) -> int:
    return 1 if a < b else 0


def _sltiu(a: int, b: int, imm: int, pc: int) -> int:
    return 1 if a < (imm & MASK32) else 0


def _sll(a: int, b: int, imm: int, pc: int) -> int:
    return (a << (b & 0x1F)) & MASK32


def _slli(a: int, b: int, imm: int, pc: int) -> int:
    return (a << (imm & 0x1F)) & MASK32


def _srl(a: int, b: int, imm: int, pc: int) -> int:
    return a >> (b & 0x1F)


def _srli(a: int, b: int, imm: int, pc: int) -> int:
    return a >> (imm & 0x1F)


def _sra(a: int, b: int, imm: int, pc: int) -> int:
    return (_signed(a) >> (b & 0x1F)) & MASK32


def _srai(a: int, b: int, imm: int, pc: int) -> int:
    return (_signed(a) >> (imm & 0x1F)) & MASK32


def _lui(a: int, b: int, imm: int, pc: int) -> int:
    return (imm << 12) & MASK32


def _auipc(a: int, b: int, imm: int, pc: int) -> int:
    return (pc + (imm << 12)) & MASK32


def _link(a: int, b: int, imm: int, pc: int) -> int:
    """``jal``/``jalr``: the link value."""
    return (pc + 4) & MASK32


def _branch_target(a: int, b: int, imm: int, pc: int) -> int:
    """A branch's target (its condition is :func:`branch_taken`)."""
    return (pc + imm) & MASK32


def _system(a: int, b: int, imm: int, pc: int) -> int:
    """``fence``, ``ecall`` and ``ebreak`` compute nothing."""
    return 0


def _mul(a: int, b: int, imm: int, pc: int) -> int:
    return (_signed(a) * _signed(b)) & MASK32


def _mulh(a: int, b: int, imm: int, pc: int) -> int:
    return ((_signed(a) * _signed(b)) >> 32) & MASK32


def _mulhsu(a: int, b: int, imm: int, pc: int) -> int:
    return ((_signed(a) * b) >> 32) & MASK32


def _mulhu(a: int, b: int, imm: int, pc: int) -> int:
    return ((a * b) >> 32) & MASK32


def _div(a: int, b: int, imm: int, pc: int) -> int:
    if b == 0:
        return MASK32  # -1
    sa, sb = _signed(a), _signed(b)
    if sa == -(1 << 31) and sb == -1:
        return 1 << 31  # overflow: returns dividend
    quotient = abs(sa) // abs(sb)
    return (-quotient if (sa < 0) != (sb < 0) else quotient) & MASK32


def _divu(a: int, b: int, imm: int, pc: int) -> int:
    return MASK32 if b == 0 else (a // b) & MASK32


def _rem(a: int, b: int, imm: int, pc: int) -> int:
    if b == 0:
        return a
    sa, sb = _signed(a), _signed(b)
    if sa == -(1 << 31) and sb == -1:
        return 0
    remainder = abs(sa) % abs(sb)
    return (-remainder if sa < 0 else remainder) & MASK32


def _remu(a: int, b: int, imm: int, pc: int) -> int:
    return a if b == 0 else (a % b) & MASK32


_MULDIV_FUNCTIONS: Dict[str, AluFunction] = {
    "mul": _mul, "mulh": _mulh, "mulhsu": _mulhsu, "mulhu": _mulhu,
    "div": _div, "divu": _divu, "rem": _rem, "remu": _remu}

ALU_FUNCTIONS: Dict[str, AluFunction] = {
    "add": _add, "addi": _addi, "sub": _sub,
    "and": _and, "andi": _andi, "or": _or, "ori": _ori,
    "xor": _xor, "xori": _xori,
    "slt": _slt, "slti": _slti, "sltu": _sltu, "sltiu": _sltiu,
    "sll": _sll, "slli": _slli, "srl": _srl, "srli": _srli,
    "sra": _sra, "srai": _srai,
    "lui": _lui, "auipc": _auipc, "jal": _link, "jalr": _link,
    "fence": _system, "ecall": _system, "ebreak": _system,
    **_MULDIV_FUNCTIONS,
    # loads and stores compute their effective address
    **{name: _addi for name, spec in OPCODES.items()
       if spec.cls in (InstrClass.LOAD, InstrClass.STORE)},
    **{name: _branch_target for name, spec in OPCODES.items()
       if spec.cls is InstrClass.BRANCH}}
"""Every mnemonic's primary ALU result as a function of
``(a, b, imm, pc)``: what :func:`alu_result` looks up, and what a
replay schedule's steps carry (:mod:`repro.uarch.replay`)."""


def alu_result(instr: Instruction, a: int, b: int, pc: int) -> int:
    """Compute the primary 32-bit result of an instruction.

    ``a``/``b`` are the unsigned register operand values.  For loads/stores
    the result is the effective address; for jumps it is the link value.
    The semantics are :data:`ALU_FUNCTIONS`' entry for the mnemonic; a
    mnemonic without one raises :class:`AssemblerError`.
    """
    function = ALU_FUNCTIONS.get(instr.name)
    if function is None:
        raise AssemblerError(f"no ALU semantics for {instr.name}")
    return function(a, b, instr.imm, pc)


def muldiv_result(name: str, a: int, b: int) -> int:
    """RV32M multiply/divide semantics (including divide-by-zero rules)."""
    function = _MULDIV_FUNCTIONS.get(name)
    if function is None:
        raise AssemblerError(f"not a muldiv instruction: {name}")
    return function(a, b, 0, 0)


def _blt(a: int, b: int) -> bool:
    return _signed(a) < _signed(b)


def _bge(a: int, b: int) -> bool:
    return _signed(a) >= _signed(b)


BRANCH_CONDITIONS: Dict[str, Callable[[int, int], bool]] = {
    "beq": operator.eq, "bne": operator.ne, "blt": _blt, "bge": _bge,
    "bltu": operator.lt, "bgeu": operator.ge}
"""Each conditional branch's condition as a function of ``(a, b)``."""


def branch_taken(instr: Instruction, a: int, b: int) -> bool:
    """Evaluate a conditional branch on unsigned operand values."""
    condition = BRANCH_CONDITIONS.get(instr.name)
    if condition is None:
        raise AssemblerError(f"not a branch: {instr.name}")
    return condition(a, b)


def load_width(name: str) -> Tuple[int, bool]:
    """Return (bytes, signed) for a load mnemonic."""
    return {"lb": (1, True), "lbu": (1, False), "lh": (2, True),
            "lhu": (2, False), "lw": (4, True)}[name]


def store_width(name: str) -> int:
    """Return the byte width of a store mnemonic."""
    return {"sb": 1, "sh": 2, "sw": 4}[name]


def jalr_target(rs1_val: int, imm: int) -> int:
    """The target of ``jalr`` with offset ``imm`` from ``rs1_val``."""
    return (rs1_val + imm) & ~1 & MASK32


def control_flow_target(instr: Instruction, pc: int, rs1_val: int) -> int:
    """Compute the taken target of a branch or jump at ``pc``."""
    if instr.name == "jalr":
        return jalr_target(rs1_val, instr.imm)
    return (pc + instr.imm) & MASK32


# ----------------------------------------------------------------------
# Golden (sequential, non-pipelined) reference interpreter
# ----------------------------------------------------------------------
@dataclass
class GoldenSimulator:
    """Sequential RV32IM interpreter used as the pipeline's reference model.

    Executes one instruction per step with no timing model; used in tests to
    check that the pipelined core computes identical architectural state.
    """

    program: Program
    registers: List[int] = field(default_factory=lambda: [0] * 32)
    memory: Dict[int, int] = field(default_factory=dict)
    pc: int = TEXT_BASE
    halted: bool = False
    retired: int = 0

    def __post_init__(self) -> None:
        self.memory.update(self.program.data)
        self.pc = self.program.entry

    # -- memory helpers -------------------------------------------------
    def _read(self, address: int, nbytes: int, signed: bool) -> int:
        value = 0
        for index in range(nbytes):
            value |= self.memory.get((address + index) & MASK32, 0) << \
                (8 * index)
        return (sign_extend(value, 8 * nbytes) & MASK32) if signed else value

    def _write(self, address: int, value: int, nbytes: int) -> None:
        for index in range(nbytes):
            self.memory[(address + index) & MASK32] = \
                (value >> (8 * index)) & 0xFF

    # -- execution ------------------------------------------------------
    def step(self) -> Optional[Instruction]:
        """Execute one instruction; returns it, or None when halted."""
        if self.halted:
            return None
        instr = self.program.instruction_at(self.pc)
        if instr is None:
            self.halted = True
            return None
        next_pc = (self.pc + 4) & MASK32
        a = self.registers[instr.rs1]
        b = self.registers[instr.rs2]
        result = None

        if instr.name in ("ecall", "ebreak"):
            self.halted = True
        elif instr.is_load:
            nbytes, signed = load_width(instr.name)
            result = self._read((a + instr.imm) & MASK32, nbytes, signed)
        elif instr.is_store:
            self._write((a + instr.imm) & MASK32, b,
                        store_width(instr.name))
        elif instr.is_branch:
            if branch_taken(instr, a, b):
                next_pc = control_flow_target(instr, self.pc, a)
        elif instr.is_jump:
            result = (self.pc + 4) & MASK32
            next_pc = control_flow_target(instr, self.pc, a)
        elif instr.name != "fence":
            result = alu_result(instr, a, b, self.pc)

        if result is not None and instr.rd != 0:
            self.registers[instr.rd] = result
        self.pc = next_pc
        self.retired += 1
        return instr

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run to halt (or ``max_steps``); returns instructions retired."""
        for _ in range(max_steps):
            if self.step() is None:
                break
        return self.retired

"""Random and structured workload generators.

Used for differential testing of the pipeline against the golden
interpreter, for EMSim training corpora, and for the paper's randomized
microbenchmark groups (§V-A: random operands, loops with random iteration
counts).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

from ..isa.instructions import Instruction, NOP
from ..isa.program import DATA_BASE, Program, store_words

SCRATCH_BASE = DATA_BASE
"""Base address of the scratch data region used by generated programs."""

SCRATCH_WORDS = 512
"""Words of pre-initialized scratch data."""

# Registers the generators may freely clobber (t/a/s registers, not sp/gp).
WORK_REGISTERS = (5, 6, 7, 28, 29, 30, 31, 10, 11, 12, 13, 14,
                  15, 16, 17, 18, 19, 20, 21)

BASE_REGISTER = 3  # gp holds SCRATCH_BASE in generated programs

ALU_OPS = ("add", "sub", "and", "or", "xor", "slt", "sltu")
ALU_IMM_OPS = ("addi", "andi", "ori", "xori", "slti", "sltiu")
SHIFT_OPS = ("sll", "srl", "sra")
SHIFT_IMM_OPS = ("slli", "srli", "srai")
MULDIV_OPS = ("mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu")
LOAD_OPS = ("lb", "lh", "lw", "lbu", "lhu")
STORE_OPS = ("sb", "sh", "sw")
BRANCH_OPS = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


def _scratch_preamble() -> List[Instruction]:
    """Instructions setting gp to the scratch base address."""
    upper = (SCRATCH_BASE + 0x800) >> 12
    lower = SCRATCH_BASE & 0xFFF
    if lower >= 0x800:
        lower -= 0x1000
    return [Instruction("lui", rd=BASE_REGISTER, imm=upper & 0xFFFFF),
            Instruction("addi", rd=BASE_REGISTER, rs1=BASE_REGISTER,
                        imm=lower)]


def _scratch_data() -> dict:
    """Deterministic pseudo-random scratch words."""
    rng = random.Random(0xE351)
    data: dict = {}
    store_words(data, SCRATCH_BASE,
                [rng.getrandbits(32) for _ in range(SCRATCH_WORDS)])
    return data


# built once per process; every wrapped program gets its own copy
_SCRATCH_IMAGE = _scratch_data()


def wrap_program(instructions: Iterable[Instruction],
                 name: str = "generated",
                 seed_registers: bool = True,
                 append_ebreak: bool = True) -> Program:
    """Wrap an instruction sequence into a runnable :class:`Program`.

    Prepends the scratch-pointer preamble, appends ``ebreak``, and
    initializes the scratch data region.
    """
    body = list(instructions)
    code = (_scratch_preamble() if seed_registers else []) + body
    if append_ebreak:
        code.append(Instruction("ebreak"))
    return Program(instructions=code, data=dict(_SCRATCH_IMAGE), name=name)


class RandomProgramBuilder:
    """Generates random-yet-safe RV32IM programs.

    All memory accesses stay inside the scratch region; control flow is
    limited to bounded loops and short forward branches, so every generated
    program terminates.
    """

    def __init__(self, seed: int = 0,
                 include_muldiv: bool = True,
                 include_memory: bool = True,
                 include_branches: bool = True):
        self.rng = random.Random(seed)
        self.include_muldiv = include_muldiv
        self.include_memory = include_memory
        self.include_branches = include_branches

    # -- single-instruction helpers --------------------------------------
    def _reg(self) -> int:
        return self.rng.choice(WORK_REGISTERS)

    def random_alu(self) -> Instruction:
        """One random ALU/shift instruction (register or immediate form)."""
        kind = self.rng.randrange(4)
        if kind == 0:
            return Instruction(self.rng.choice(ALU_OPS), rd=self._reg(),
                               rs1=self._reg(), rs2=self._reg())
        if kind == 1:
            return Instruction(self.rng.choice(ALU_IMM_OPS), rd=self._reg(),
                               rs1=self._reg(),
                               imm=self.rng.randrange(-2048, 2048))
        if kind == 2:
            return Instruction(self.rng.choice(SHIFT_OPS), rd=self._reg(),
                               rs1=self._reg(), rs2=self._reg())
        return Instruction(self.rng.choice(SHIFT_IMM_OPS), rd=self._reg(),
                           rs1=self._reg(), imm=self.rng.randrange(32))

    def random_muldiv(self) -> Instruction:
        """One random multiply/divide instruction."""
        return Instruction(self.rng.choice(MULDIV_OPS), rd=self._reg(),
                           rs1=self._reg(), rs2=self._reg())

    def random_load(self) -> Instruction:
        """One random load from the scratch region."""
        name = self.rng.choice(LOAD_OPS)
        width = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[name]
        offset = self.rng.randrange(0, 4 * SCRATCH_WORDS - 4)
        offset -= offset % width
        return Instruction(name, rd=self._reg(), rs1=BASE_REGISTER,
                           imm=min(offset, 2047 - (2047 % width)))

    def random_store(self) -> Instruction:
        """One random store into the scratch region."""
        name = self.rng.choice(STORE_OPS)
        width = {"sb": 1, "sh": 2, "sw": 4}[name]
        offset = self.rng.randrange(0, 2040)
        offset -= offset % width
        return Instruction(name, rs2=self._reg(), rs1=BASE_REGISTER,
                           imm=offset)

    def random_forward_branch(self) -> List[Instruction]:
        """A conditional branch skipping 1-2 following instructions."""
        skip = self.rng.randrange(1, 3)
        branch = Instruction(self.rng.choice(BRANCH_OPS), rs1=self._reg(),
                             rs2=self._reg(), imm=4 * (skip + 1))
        return [branch] + [self.random_alu() for _ in range(skip)]

    def counted_loop(self, body_length: int = 3,
                     iterations: Optional[int] = None) -> List[Instruction]:
        """A bounded countdown loop with a random body."""
        iterations = iterations or self.rng.randrange(2, 6)
        counter = 22  # s6, reserved for loop counters
        body = [self.random_alu() for _ in range(body_length)]
        return ([Instruction("addi", rd=counter, rs1=0, imm=iterations)] +
                body +
                [Instruction("addi", rd=counter, rs1=counter, imm=-1),
                 Instruction("bne", rs1=counter, rs2=0,
                             imm=-4 * (len(body) + 1))])

    # -- whole-program generation ----------------------------------------
    def instructions(self, count: int) -> List[Instruction]:
        """Generate approximately ``count`` instructions."""
        result: List[Instruction] = []
        while len(result) < count:
            roll = self.rng.random()
            if roll < 0.45:
                result.append(self.random_alu())
            elif roll < 0.55 and self.include_muldiv:
                result.append(self.random_muldiv())
            elif roll < 0.70 and self.include_memory:
                result.append(self.random_load())
            elif roll < 0.80 and self.include_memory:
                result.append(self.random_store())
            elif roll < 0.90 and self.include_branches:
                result.extend(self.random_forward_branch())
            elif self.include_branches:
                result.extend(self.counted_loop())
            else:
                result.append(self.random_alu())
        return result  # may exceed count slightly to finish a loop/branch

    def program(self, count: int, name: str = "random") -> Program:
        """Generate a runnable random program of about ``count``
        instructions."""
        return wrap_program(self.instructions(count), name=name)


def nop_padded(instructions: Sequence[Instruction], before: int = 6,
               after: int = 6, name: str = "probe") -> Program:
    """NOP → sequence → NOP probe program (paper §III-B)."""
    code = [NOP] * before + list(instructions) + [NOP] * after
    return wrap_program(code, name=name, seed_registers=False,
                        append_ebreak=True)

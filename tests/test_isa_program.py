"""Tests for the Program container and the disassembler."""

import numpy as np
import pytest

from repro.isa import (Instruction, NOP, Program, TEXT_BASE, assemble,
                       disassemble, disassemble_word, store_words)
from repro.isa.program import bound_template


def test_machine_code_matches_instructions():
    program = Program.from_instructions([NOP, Instruction("ebreak")])
    assert program.machine_code == [0x00000013, 0x00100073]


def test_instruction_at():
    program = Program.from_instructions([NOP] * 3)
    assert program.instruction_at(TEXT_BASE) is NOP
    assert program.instruction_at(TEXT_BASE + 8) is NOP
    assert program.instruction_at(TEXT_BASE + 12) is None
    assert program.instruction_at(TEXT_BASE + 2) is None  # misaligned
    assert program.instruction_at(TEXT_BASE - 4) is None


def test_with_data():
    base_program = Program.from_instructions([NOP])
    poked = base_program.with_data({0x2000: [0x44, 0x133, -1],
                                    0x3000: [7]})
    # each value is masked to a byte, as the .byte directive does
    assert poked.data == {0x2000: 0x44, 0x2001: 0x33, 0x2002: 0xFF,
                          0x3000: 7}
    assert poked.instructions[0] is NOP
    assert not base_program.data  # original untouched


def test_with_data_copies_remember_their_root_template():
    template = Program.from_instructions([NOP])
    copy = template.with_data({0x2000: [1]})
    again = copy.with_data({0x2000: [2]})
    assert bound_template(template) is None
    assert bound_template(copy) is template
    assert bound_template(again) is template
    assert bound_template(Program.from_instructions([NOP])) is None


def test_data_byte_validation():
    with pytest.raises(ValueError):
        Program(instructions=[NOP], data={0: 300})
    # the error names the first bad address
    for value in (256, -1):
        with pytest.raises(ValueError) as error:
            Program(instructions=[NOP],
                    data={0x10: 1, 0x11: value, 0x12: 999})
        assert str(error.value) == \
            f"data byte at 0x11 out of range: {value}"


def test_data_byte_validation_accepts_what_the_range_check_accepts():
    values = [0, 255, True, np.uint8(7), 3.0]
    program = Program(instructions=[NOP], data=dict(enumerate(values)))
    assert list(program.data.values()) == values


def test_store_words_little_endian():
    data = {}
    store_words(data, 0x100, [0xAABBCCDD])
    assert data[0x100] == 0xDD
    assert data[0x103] == 0xAA


def test_to_asm_round_trip():
    source = """
    add t0, t1, t2
    lw a0, 4(sp)
    sw a1, 8(sp)
    """
    program = assemble(source)
    again = assemble(program.to_asm())
    assert again.instructions == program.instructions


def test_disassemble_word():
    assert disassemble_word(0x00000013) == "nop"
    assert disassemble_word(0x003100B3) == "add ra, sp, gp"


def test_disassemble_listing():
    program = assemble("nop\nadd t0, t1, t2")
    lines = disassemble(program.machine_code)
    assert lines[0].startswith("00000000: nop")
    assert "add" in lines[1]


def test_disassemble_round_trip_whole_isa():
    from repro.isa.spec import ALL_MNEMONICS
    for name in ALL_MNEMONICS:
        if name in ("ecall", "ebreak", "fence"):
            instr = Instruction(name)
        elif name in ("slli", "srli", "srai"):
            instr = Instruction(name, rd=3, rs1=4, imm=7)
        else:
            probe = Instruction(name, rd=3, rs1=4, rs2=5)
            if probe.is_branch:
                instr = Instruction(name, rs1=4, rs2=5, imm=16)
            elif probe.fmt.value == "J":
                instr = Instruction(name, rd=3, imm=16)
            else:
                instr = probe
        text = instr.to_asm()
        assert assemble(text).instructions[0].encode() == instr.encode(), \
            (name, text)

"""The ALU table equals the seed's chain of mnemonic tests.

:func:`repro.uarch.isa_exec.alu_result` looks each mnemonic up in
:data:`~repro.uarch.isa_exec.ALU_FUNCTIONS`, the table both cores, the
schedule replay and the golden interpreter share.  The seed computed the
same results through a chain of ``if name in (...)`` tests
(``seed_alu_result`` in ``tests/oracles.py``); every mnemonic, at random
32-bit operands, encodable immediates and word-aligned PCs, must give
the same value, and a mnemonic neither knows must raise the same error.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Instruction
from repro.isa.encoding import IMM_RANGES
from repro.isa.spec import OPCODES, InstrFormat
from repro.robustness.errors import AssemblerError
from repro.uarch.isa_exec import ALU_FUNCTIONS, alu_result, muldiv_result

from .oracles import seed_alu_result, seed_muldiv_result

MASK32 = 0xFFFFFFFF
WORDS = st.integers(0, MASK32)
PCS = st.integers(0, MASK32 >> 2).map(lambda word: word << 2)


def _immediates(name):
    """The immediates ``name`` can encode."""
    fmt = OPCODES[name].fmt
    if name in ("slli", "srli", "srai"):
        return st.integers(0, 31)
    if fmt is InstrFormat.R or name in ("ecall", "ebreak"):
        return st.just(0)
    low, high = IMM_RANGES[fmt]
    if fmt in (InstrFormat.B, InstrFormat.J):
        return st.integers(low // 2, high // 2).map(lambda half: 2 * half)
    return st.integers(low, high)


def _outcome(function, *args):
    """``function``'s result, or the type and text of what it raised."""
    try:
        return function(*args)
    except AssemblerError as error:
        return type(error), str(error)


def test_table_covers_every_mnemonic():
    assert set(ALU_FUNCTIONS) == set(OPCODES)


@pytest.mark.parametrize("name", sorted(OPCODES))
@given(data=st.data(), a=WORDS, b=WORDS, pc=PCS)
@settings(max_examples=40, deadline=None)
def test_alu_result_equals_the_seed_chain(name, data, a, b, pc):
    instr = Instruction(name, rd=1, rs1=2, rs2=3,
                        imm=data.draw(_immediates(name), label="imm"))
    assert alu_result(instr, a, b, pc) == seed_alu_result(instr, a, b, pc)


@pytest.mark.parametrize("name", sorted(OPCODES))
@given(a=WORDS, b=WORDS)
@settings(max_examples=20, deadline=None)
def test_muldiv_result_equals_the_seed_chain(name, a, b):
    assert _outcome(muldiv_result, name, a, b) == \
        _outcome(seed_muldiv_result, name, a, b)


def test_unknown_mnemonic_raises_the_seed_error():
    # an Instruction rejects unknown names, so a stand-in carries one
    bogus = SimpleNamespace(name="bogus", imm=4, is_load=False,
                            is_store=False, is_muldiv=False,
                            is_branch=False)
    outcome = _outcome(alu_result, bogus, 1, 2, 0)
    assert outcome == _outcome(seed_alu_result, bogus, 1, 2, 0)
    assert outcome == (AssemblerError, "no ALU semantics for bogus")

"""Tests for workload generators and canned kernels."""

import random

import pytest

from repro.isa import Instruction
from repro.isa.program import store_words
from repro.uarch import GoldenSimulator, run_program
from repro.workloads import (ALL_KERNELS, RandomProgramBuilder,
                             SCRATCH_BASE, SCRATCH_WORDS, nop_padded,
                             wrap_program)


def test_wrap_program_appends_ebreak_and_scratch():
    program = wrap_program([Instruction("add", rd=5, rs1=6, rs2=7)])
    assert program.instructions[-1].name == "ebreak"
    assert program.data  # scratch region initialized
    assert min(program.data) == SCRATCH_BASE


def test_wrapped_programs_own_copies_of_the_scratch_image():
    rng = random.Random(0xE351)
    image = {}
    store_words(image, SCRATCH_BASE,
                [rng.getrandbits(32) for _ in range(SCRATCH_WORDS)])
    first = wrap_program([], name="first")
    second = wrap_program([], name="second")
    assert first.data == image and second.data == image
    first.data[SCRATCH_BASE] ^= 0xFF
    first.data[SCRATCH_BASE + 4 * SCRATCH_WORDS] = 1
    assert second.data == image
    assert wrap_program([], name="third").data == image


def test_wrap_program_sets_gp():
    program = wrap_program([])
    golden = GoldenSimulator(program)
    golden.run()
    assert golden.registers[3] == SCRATCH_BASE


def test_nop_padded_layout():
    instr = Instruction("mul", rd=5, rs1=6, rs2=7)
    program = nop_padded([instr], before=4, after=3)
    names = [i.name for i in program.instructions]
    assert names.count("mul") == 1
    index = names.index("mul")
    assert all(program.instructions[i].is_nop
               for i in range(index - 4, index))
    assert all(program.instructions[i].is_nop
               for i in range(index + 1, index + 4))


@pytest.mark.parametrize("seed", range(6))
def test_random_programs_terminate(seed):
    program = RandomProgramBuilder(seed=seed).program(100)
    golden = GoldenSimulator(program)
    golden.run(max_steps=500_000)
    assert golden.halted


def test_random_builder_feature_toggles():
    builder = RandomProgramBuilder(seed=1, include_muldiv=False,
                                   include_memory=False,
                                   include_branches=False)
    instructions = builder.instructions(120)
    names = {instr.name for instr in instructions}
    assert not names & {"mul", "div", "lw", "sw", "beq", "bne"}


def test_random_builder_memory_stays_in_scratch():
    builder = RandomProgramBuilder(seed=2)
    for _ in range(100):
        load = builder.random_load()
        assert load.rs1 == 3
        assert 0 <= load.imm <= 2047
        store = builder.random_store()
        assert 0 <= store.imm <= 2047


def test_counted_loop_terminates_with_exact_iterations():
    builder = RandomProgramBuilder(seed=3)
    loop = builder.counted_loop(body_length=2, iterations=5)
    program = wrap_program(loop)
    golden = GoldenSimulator(program)
    golden.run(max_steps=10_000)
    assert golden.halted


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_kernels_run_on_pipeline(name):
    trace, core = run_program(ALL_KERNELS[name]())
    assert core.halted
    assert trace.instructions_retired > 10


def test_dot_product_result():
    from repro.workloads import dot_product
    golden = GoldenSimulator(dot_product(4))
    golden.run()
    expected = sum((3 * i + 1) * (7 * i + 2) for i in range(4))
    assert golden.registers[10] == expected


def test_bubble_sort_sorts():
    from repro.workloads import bubble_sort
    golden = GoldenSimulator(bubble_sort(6))
    golden.run(max_steps=100_000)
    values = [golden._read(0x10000 + 4 * i, 4, False) for i in range(6)]
    assert values == sorted(values)


def test_crc32_matches_zlib():
    import zlib
    from repro.workloads import crc32
    golden = GoldenSimulator(crc32(8))
    golden.run(max_steps=300_000)
    data = b"".join(((0xC0FFEE00 + 37 * i) & 0xFFFFFFFF)
                    .to_bytes(4, "little") for i in range(8))
    assert golden.registers[10] == zlib.crc32(data)


def test_matmul_matches_reference():
    from repro.workloads import matmul
    size = 3
    golden = GoldenSimulator(matmul(size))
    golden.run(max_steps=300_000)
    a = [(2 * i + 1) & 0xFF for i in range(size * size)]
    b = [(3 * i + 2) & 0xFF for i in range(size * size)]
    expected = [sum(a[i * size + k] * b[k * size + j]
                    for k in range(size))
                for i in range(size) for j in range(size)]
    got = [golden._read(0x10800 + 4 * index, 4, False)
           for index in range(size * size)]
    assert got == expected


def test_fibonacci_value():
    from repro.workloads import fibonacci
    golden = GoldenSimulator(fibonacci(10))
    golden.run()
    assert golden.registers[10] == 55

"""Tests for the AES-128 implementation (repro.leakage.aes)."""

import numpy as np
import pytest

from repro.core import trace_key
from repro.isa import assemble
from repro.leakage import aes
from repro.leakage.aes import (DEFAULT_KEY, FIPS_CIPHERTEXT, FIPS_KEY,
                               FIPS_PLAINTEXT, RK_BASE, SBOX, STATE_BASE,
                               aes128_encrypt_reference, aes_program,
                               key_schedule, read_ciphertext)
from repro.uarch import DEFAULT_CONFIG, GoldenSimulator, run_program
from .oracles import seed_aes_program


def test_sbox_known_values():
    # classic S-box spot checks
    assert SBOX[0x00] == 0x63
    assert SBOX[0x01] == 0x7C
    assert SBOX[0x53] == 0xED
    assert SBOX[0xFF] == 0x16
    assert len(set(SBOX)) == 256  # a permutation


def test_key_schedule_fips_vector():
    round_keys = key_schedule(FIPS_KEY)
    assert len(round_keys) == 11
    assert round_keys[0] == list(FIPS_KEY)
    # FIPS-197 appendix A.1: w[4..7] of the expanded key
    assert round_keys[1][:4] == [0xA0, 0xFA, 0xFE, 0x17]
    assert round_keys[10][12:] == [0xB6, 0x63, 0x0C, 0xA6]


def test_key_schedule_rejects_bad_key():
    with pytest.raises(ValueError):
        key_schedule([0] * 15)


def test_reference_matches_fips():
    assert tuple(aes128_encrypt_reference(FIPS_KEY, FIPS_PLAINTEXT)) == \
        FIPS_CIPHERTEXT


def test_reference_rejects_bad_plaintext():
    with pytest.raises(ValueError):
        aes128_encrypt_reference(FIPS_KEY, [0] * 15)


def test_golden_execution_matches_fips():
    program = aes_program(FIPS_KEY, FIPS_PLAINTEXT)
    golden = GoldenSimulator(program)
    golden.run(max_steps=100_000)
    assert golden.halted
    assert tuple(read_ciphertext(golden.memory)) == FIPS_CIPHERTEXT


def test_pipeline_execution_matches_fips():
    program = aes_program(FIPS_KEY, FIPS_PLAINTEXT)
    trace, core = run_program(program)
    assert core.halted
    assert tuple(read_ciphertext(core.memory.snapshot())) == \
        FIPS_CIPHERTEXT


def test_reduced_round_variant_matches_reference():
    plaintext = list(range(16, 32))
    program = aes_program(DEFAULT_KEY, plaintext, rounds=3)
    golden = GoldenSimulator(program)
    golden.run(max_steps=100_000)
    expected = aes128_encrypt_reference(DEFAULT_KEY, plaintext, rounds=3)
    assert read_ciphertext(golden.memory) == expected


def test_cycle_count_is_data_independent():
    """Required for TVLA trace alignment: the cache-warmed AES runs in
    the same number of cycles for every plaintext."""
    counts = set()
    for seed in range(3):
        plaintext = [(seed * 37 + i * 11) & 0xFF for i in range(16)]
        trace, _ = run_program(aes_program(DEFAULT_KEY, plaintext,
                                           rounds=2))
        counts.add(trace.num_cycles)
    assert len(counts) == 1


def test_different_plaintexts_different_ciphertexts():
    a = aes128_encrypt_reference(DEFAULT_KEY, [0] * 16)
    b = aes128_encrypt_reference(DEFAULT_KEY, [1] + [0] * 15)
    assert a != b


# ---------------------------------------------------------------------------
# assembled once, data bound per call
# ---------------------------------------------------------------------------
def _random_bytes(rng):
    return [int(byte) for byte in rng.integers(0, 256, 16)]


@pytest.mark.parametrize("warm_cache", [True, False])
def test_bound_program_equals_text_generated_seed(warm_cache):
    rng = np.random.default_rng(2024 + warm_cache)
    for rounds in range(1, 11):
        # TVLA draws its random plaintexts as NumPy integers
        key, plaintext = _random_bytes(rng), list(rng.integers(0, 256, 16))
        bound = aes_program(key, plaintext, rounds=rounds,
                            warm_cache=warm_cache)
        seed = seed_aes_program(key, plaintext, rounds=rounds,
                                warm_cache=warm_cache)
        assert bound.instructions == seed.instructions
        assert bound.data == seed.data
        assert bound.symbols == seed.symbols
        assert bound.entry == seed.entry
        assert bound.name == seed.name
        assert trace_key(bound, DEFAULT_CONFIG) == \
            trace_key(seed, DEFAULT_CONFIG)


def test_template_assembled_once_and_instructions_shared(monkeypatch):
    calls = []

    def counting_assemble(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(aes, "assemble", counting_assemble)
    aes._aes_template.cache_clear()
    rng = np.random.default_rng(7)
    programs = [aes_program(key, _random_bytes(rng), rounds=2)
                for key in (_random_bytes(rng), _random_bytes(rng))
                for _ in range(3)]
    assert len(calls) == 1
    first = programs[0]
    for program in programs[1:]:
        assert program.instructions is not first.instructions
        assert program.data is not first.data
        assert all(mine is theirs for mine, theirs
                   in zip(program.instructions, first.instructions))
    # binding never writes into the cached template
    template = aes._aes_template(2, True)
    assert all(template.data[RK_BASE + offset] == 0
               for offset in range(176))
    assert all(template.data[STATE_BASE + offset] == 0
               for offset in range(16))


@pytest.mark.parametrize("length", [15, 17])
def test_aes_program_rejects_plaintext_of_wrong_length(length):
    with pytest.raises(ValueError):
        aes128_encrypt_reference(DEFAULT_KEY, [0] * length)
    with pytest.raises(ValueError):
        aes_program(DEFAULT_KEY, [0] * length)


@pytest.mark.parametrize("rounds", [0, 11])
def test_aes_program_rejects_rounds_outside_1_to_10(rounds):
    if rounds > 10:
        # the reference runs past its 11 round keys
        with pytest.raises(IndexError):
            aes128_encrypt_reference(DEFAULT_KEY, [0] * 16, rounds=rounds)
    with pytest.raises(ValueError):
        aes_program(DEFAULT_KEY, [0] * 16, rounds=rounds)


@pytest.mark.parametrize("value", [300, -1, 256])
@pytest.mark.parametrize("position", [0, 7, 15])
def test_out_of_range_key_or_plaintext_byte_raises(value, position):
    # 300 used to be stored as 44, a key byte of -1 read SBOX[-1], and a
    # key byte of 256 raised IndexError
    bad = list(range(16))
    bad[position] = value
    good = list(range(16))
    with pytest.raises(ValueError, match="out of range"):
        key_schedule(bad)
    for key, plaintext in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="out of range"):
            aes_program(key, plaintext, rounds=1)
        with pytest.raises(ValueError, match="out of range"):
            aes128_encrypt_reference(key, plaintext, rounds=1)

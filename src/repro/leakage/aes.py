"""AES-128 for the RV32IM core, plus a pure-Python reference.

The paper's TVLA use case (§VI-A, Fig. 10) runs AES-128 on the RISC-V
processor and compares leakage assessments of measured vs simulated
signals.  This module generates a byte-oriented AES-128 encryption in
RV32IM assembly (S-box and round keys as data-memory tables, fully
key-independent control flow) and provides the standard reference
implementation used to verify it.

The generated program pre-warms the data cache over all tables so that the
encryption itself has a data-independent cycle count — traces for
different plaintexts align cycle-for-cycle, as TVLA requires.
"""

from __future__ import annotations

import functools
from typing import List, Sequence

from ..isa.assembler import assemble
from ..isa.program import Program

# ----------------------------------------------------------------------
# GF(2^8) arithmetic and the S-box, computed (not hard-coded)
# ----------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2^8) (0 maps to 0)."""
    if a == 0:
        return 0
    # a^254 = a^-1 in GF(2^8)
    result, power, exponent = 1, a, 254
    while exponent:
        if exponent & 1:
            result = _gf_mul(result, power)
        power = _gf_mul(power, power)
        exponent >>= 1
    return result


def _affine(value: int) -> int:
    """The S-box affine transformation over GF(2)."""
    result = 0
    for bit in range(8):
        parity = ((value >> bit) ^ (value >> ((bit + 4) % 8)) ^
                  (value >> ((bit + 5) % 8)) ^ (value >> ((bit + 6) % 8)) ^
                  (value >> ((bit + 7) % 8)) ^ (0x63 >> bit)) & 1
        result |= parity << bit
    return result


SBOX: List[int] = [_affine(_gf_inverse(value)) for value in range(256)]
"""The AES S-box, derived from first principles."""

RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _check_bytes(values: Sequence[int], what: str) -> None:
    """Raise :class:`ValueError` unless every value is in 0..255."""
    for index, value in enumerate(values):
        if not 0 <= value <= 255:
            raise ValueError(f"{what} byte {index} is out of range "
                             f"0..255: {value!r}")


def key_schedule(key: Sequence[int]) -> List[List[int]]:
    """AES-128 key expansion: 16-byte key -> 11 round keys of 16 bytes.

    A key that is not 16 values in 0..255 raises :class:`ValueError`.
    """
    if len(key) != 16:
        raise ValueError("AES-128 key must be 16 bytes")
    _check_bytes(key, "key")
    words = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    for index in range(4, 44):
        temp = list(words[index - 1])
        if index % 4 == 0:
            temp = temp[1:] + temp[:1]                     # RotWord
            temp = [SBOX[byte] for byte in temp]           # SubWord
            temp[0] ^= RCON[index // 4 - 1]
        words.append([a ^ b for a, b in zip(words[index - 4], temp)])
    return [sum(words[4 * r:4 * r + 4], []) for r in range(11)]


def _xtime(value: int) -> int:
    doubled = (value << 1) & 0xFF
    return doubled ^ 0x1B if value & 0x80 else doubled


def aes128_encrypt_reference(key: Sequence[int],
                             plaintext: Sequence[int],
                             rounds: int = 10) -> List[int]:
    """Reference AES-128 encryption (state bytes in column-major order).

    ``rounds`` < 10 gives a reduced-round variant (used to shorten test
    workloads); the final round always skips MixColumns.  A key or
    plaintext that is not 16 values in 0..255 raises :class:`ValueError`.
    """
    if len(plaintext) != 16:
        raise ValueError("plaintext must be 16 bytes")
    _check_bytes(plaintext, "plaintext")
    round_keys = key_schedule(key)
    state = [plaintext[i] ^ round_keys[0][i] for i in range(16)]
    for round_index in range(1, rounds + 1):
        state = [SBOX[byte] for byte in state]             # SubBytes
        shifted = list(state)                              # ShiftRows
        for row in range(1, 4):
            for col in range(4):
                shifted[row + 4 * col] = \
                    state[row + 4 * ((col + row) % 4)]
        state = shifted
        if round_index != rounds:                          # MixColumns
            mixed = list(state)
            for col in range(4):
                a = state[4 * col:4 * col + 4]
                b = [_xtime(byte) for byte in a]
                mixed[4 * col + 0] = b[0] ^ a[1] ^ b[1] ^ a[2] ^ a[3]
                mixed[4 * col + 1] = a[0] ^ b[1] ^ a[2] ^ b[2] ^ a[3]
                mixed[4 * col + 2] = a[0] ^ a[1] ^ b[2] ^ a[3] ^ b[3]
                mixed[4 * col + 3] = a[0] ^ b[0] ^ a[1] ^ a[2] ^ b[3]
            state = mixed
        round_key = round_keys[round_index]
        state = [state[i] ^ round_key[i] for i in range(16)]
    return state


# ----------------------------------------------------------------------
# assembly generation
# ----------------------------------------------------------------------
SBOX_BASE = 0x0001_0000
RK_BASE = 0x0001_0200
STATE_BASE = 0x0001_0300
CT_BASE = 0x0001_0340
"""Data-memory layout of the generated AES program."""

# register conventions inside the generated code
_SBOX, _RK, _ST = "s0", "s1", "s2"


def _emit_add_round_key(lines: List[str], round_index: int) -> None:
    lines.append(f"    # AddRoundKey round {round_index}")
    for byte in range(16):
        offset = 16 * round_index + byte
        lines.append(f"    lbu t0, {byte}({_ST})")
        lines.append(f"    lbu t1, {offset}({_RK})")
        lines.append("    xor t0, t0, t1")
        lines.append(f"    sb t0, {byte}({_ST})")


def _emit_sub_bytes(lines: List[str]) -> None:
    lines.append("    # SubBytes")
    for byte in range(16):
        lines.append(f"    lbu t0, {byte}({_ST})")
        lines.append(f"    add t1, {_SBOX}, t0")
        lines.append("    lbu t0, 0(t1)")
        lines.append(f"    sb t0, {byte}({_ST})")


def _emit_shift_rows(lines: List[str]) -> None:
    lines.append("    # ShiftRows")
    for row in range(1, 4):
        registers = ["t0", "t1", "t2", "t3"]
        for col in range(4):
            lines.append(f"    lbu {registers[col]}, "
                         f"{row + 4 * col}({_ST})")
        for col in range(4):
            source = registers[(col + row) % 4]
            lines.append(f"    sb {source}, {row + 4 * col}({_ST})")


def _emit_xtime(lines: List[str], source: str, dest: str) -> None:
    """dest = xtime(source), branch-free (constant time)."""
    lines.append(f"    srli t5, {source}, 7")
    lines.append("    sub t5, zero, t5")     # 0x00000000 or 0xFFFFFFFF
    lines.append("    andi t5, t5, 0x1b")
    lines.append(f"    slli t6, {source}, 1")
    lines.append("    andi t6, t6, 0xff")
    lines.append(f"    xor {dest}, t6, t5")


def _emit_mix_columns(lines: List[str]) -> None:
    lines.append("    # MixColumns")
    for col in range(4):
        a_regs = ["a0", "a1", "a2", "a3"]
        b_regs = ["a4", "a5", "a6", "a7"]
        for row in range(4):
            lines.append(f"    lbu {a_regs[row]}, {4 * col + row}({_ST})")
        for row in range(4):
            _emit_xtime(lines, a_regs[row], b_regs[row])
        combos = [
            ("a4", "a1", "a5", "a2", "a3"),   # b0^a1^b1^a2^a3
            ("a0", "a5", "a2", "a6", "a3"),   # a0^b1^a2^b2^a3
            ("a0", "a1", "a6", "a3", "a7"),   # a0^a1^b2^a3^b3
            ("a0", "a4", "a1", "a2", "a7"),   # a0^b0^a1^a2^b3
        ]
        for row, terms in enumerate(combos):
            lines.append(f"    xor t0, {terms[0]}, {terms[1]}")
            for term in terms[2:]:
                lines.append(f"    xor t0, t0, {term}")
            lines.append(f"    sb t0, {4 * col + row}({_ST})")


def _emit_cache_warm(lines: List[str]) -> None:
    """Touch every table line so the encryption itself never misses."""
    lines.append("    # cache warm-up: data-independent execution time")
    lines.append(f"    mv t2, {_SBOX}")
    lines.append("    li t3, 16")
    lines.append("warm_sbox:")
    lines.append("    lbu t0, 0(t2)")
    lines.append("    addi t2, t2, 32")
    lines.append("    addi t3, t3, -1")
    lines.append("    bnez t3, warm_sbox")
    lines.append(f"    mv t2, {_RK}")
    lines.append("    li t3, 8")
    lines.append("warm_rk:")
    lines.append("    lbu t0, 0(t2)")
    lines.append("    addi t2, t2, 32")
    lines.append("    addi t3, t3, -1")
    lines.append("    bnez t3, warm_rk")
    lines.append(f"    lbu t0, 0({_ST})")
    lines.append(f"    lbu t0, 63({_ST})")


def aes_program(key: Sequence[int], plaintext: Sequence[int],
                rounds: int = 10, warm_cache: bool = True) -> Program:
    """Return the runnable AES-128 encryption of ``plaintext`` under ``key``.

    The code does not depend on the key or the plaintext, so it is
    assembled once per ``(rounds, warm_cache)`` and process (see
    :func:`_aes_template`); each call binds the key schedule into the
    ``rk`` table and the plaintext into ``state`` of a copy of that
    template's data image.  The ciphertext lands at :data:`CT_BASE` in
    data memory.  ``rounds`` (1..10) selects reduced-round variants for
    shorter workloads.  A key or plaintext that is not 16 values in
    0..255, or ``rounds`` outside 1..10, raises :class:`ValueError`.
    """
    if len(plaintext) != 16:
        raise ValueError("plaintext must be 16 bytes")
    _check_bytes(plaintext, "plaintext")
    if not 1 <= rounds <= 10:
        raise ValueError(f"rounds must be in 1..10, got {rounds}")
    round_keys = key_schedule(key)
    template = _aes_template(rounds, bool(warm_cache))
    return template.with_data({
        RK_BASE: [byte for round_key in round_keys for byte in round_key],
        STATE_BASE: plaintext})


@functools.lru_cache(maxsize=20)
def _aes_template(rounds: int, warm_cache: bool) -> Program:
    """The assembled AES program with all-zero ``rk`` and ``state``.

    Only :func:`aes_program` reads it, and only through
    :meth:`Program.with_data`, which copies: the cached program itself
    is never handed out.
    """
    lines: List[str] = [".data", f".org {SBOX_BASE:#x}"]
    lines.append("sbox: .byte " + ", ".join(str(v) for v in SBOX))
    lines.append(f".org {RK_BASE:#x}")
    lines.append(f"rk: .space {11 * 16}")
    lines.append(f".org {STATE_BASE:#x}")
    lines.append("state: .space 16")
    lines.append(f".org {CT_BASE:#x}")
    lines.append("ct: .space 16")

    lines.append(".text")
    lines.append(f"    la {_SBOX}, sbox")
    lines.append(f"    la {_RK}, rk")
    lines.append(f"    la {_ST}, state")
    if warm_cache:
        _emit_cache_warm(lines)
    _emit_add_round_key(lines, 0)
    for round_index in range(1, rounds + 1):
        lines.append(f"    # ---- round {round_index} ----")
        _emit_sub_bytes(lines)
        _emit_shift_rows(lines)
        if round_index != rounds:
            _emit_mix_columns(lines)
        _emit_add_round_key(lines, round_index)
    lines.append("    # copy state out to ct")
    for byte in range(16):
        lines.append(f"    lbu t0, {byte}({_ST})")
        lines.append(f"    sb t0, {byte + CT_BASE - STATE_BASE}({_ST})")
    lines.append("    ebreak")
    return assemble("\n".join(lines), name=f"aes128_r{rounds}")


def read_ciphertext(memory_bytes) -> List[int]:
    """Extract the 16 ciphertext bytes from a memory byte map."""
    return [memory_bytes.get(CT_BASE + index, 0) for index in range(16)]


DEFAULT_KEY = tuple(range(16))
"""A fixed demo key (0x00..0x0f)."""

FIPS_KEY = (0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6,
            0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C)
FIPS_PLAINTEXT = (0x32, 0x43, 0xF6, 0xA8, 0x88, 0x5A, 0x30, 0x8D,
                  0x31, 0x31, 0x98, 0xA2, 0xE0, 0x37, 0x07, 0x34)
FIPS_CIPHERTEXT = (0x39, 0x25, 0x84, 0x1D, 0x02, 0xDC, 0x09, 0xFB,
                   0xDC, 0x11, 0x85, 0x97, 0x19, 0x6A, 0x0B, 0x32)
"""The FIPS-197 appendix B test vector."""

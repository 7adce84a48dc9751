"""Property-based bit-identity and codec round trips for the trace engine.

The columnar :class:`~repro.uarch.trace.ActivityTrace` replaced the
seed's per-cycle object-graph recording; the seed recorder lives on in
``tests/oracles.py`` as the reference.  These properties pin
the equivalence over *arbitrary* generated programs — not just the
canned kernels the unit tests use — on both cores and under ALU fault
injection, and pin the ``repro-trace/1`` codec: a round trip must be
byte-stable and bit-identical, and any truncation or single-byte
corruption must surface as :class:`TraceCodecError` (which the trace
cache treats as a miss), never as a wrong trace or a foreign exception.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.leakage.debugging import (buggy_multiplier,
                                     multiplier_stress_program)
from repro.uarch import run_program, run_program_ooo
from repro.uarch.tracecodec import (TraceCodecError, decode_trace,
                                    encode_trace)
from repro.workloads import fibonacci
from repro.workloads.generators import RandomProgramBuilder

from .oracles import assert_traces_identical, run_legacy


def _random_program(seed, length, **builder_options):
    builder = RandomProgramBuilder(seed=seed, **builder_options)
    return builder.program(length, name=f"prop_{seed}_{length}")


_SEEDS = st.integers(0, 2**16 - 1)
_LENGTHS = st.integers(4, 40)

#: one fixed payload for the cheap truncation/corruption properties.
_PAYLOAD = encode_trace(run_program(fibonacci(6))[0])


@given(seed=_SEEDS, length=_LENGTHS)
@settings(max_examples=25, deadline=None)
def test_columnar_matches_legacy_inorder(seed, length):
    program = _random_program(seed, length)
    legacy, _ = run_legacy(program)
    columnar, _ = run_program(program)
    assert_traces_identical(legacy, columnar)


@given(seed=_SEEDS, length=_LENGTHS)
@settings(max_examples=15, deadline=None)
def test_columnar_matches_legacy_ooo(seed, length):
    program = _random_program(seed, length)
    legacy, _ = run_legacy(program, ooo=True)
    columnar, _ = run_program_ooo(program)
    assert_traces_identical(legacy, columnar)


@given(seed=_SEEDS, muls=st.integers(1, 8))
@settings(max_examples=10, deadline=None)
def test_columnar_matches_legacy_under_fault_injection(seed, muls):
    program = multiplier_stress_program(muls, seed=seed)
    legacy, _ = run_legacy(program, alu_bug=buggy_multiplier)
    columnar, _ = run_program(program, alu_bug=buggy_multiplier)
    assert_traces_identical(legacy, columnar)


@given(seed=_SEEDS, length=_LENGTHS)
@settings(max_examples=15, deadline=None)
def test_codec_round_trip_is_byte_stable(seed, length):
    program = _random_program(seed, length)
    trace, _ = run_program(program)
    payload = encode_trace(trace)
    decoded = decode_trace(payload)
    assert_traces_identical(trace, decoded)
    assert encode_trace(decoded) == payload
    # pickling routes through the codec, so it round-trips identically
    assert_traces_identical(trace, pickle.loads(pickle.dumps(trace)))


@given(cut=st.integers(0, len(_PAYLOAD) - 1))
@settings(max_examples=60, deadline=None)
def test_truncated_payload_is_rejected(cut):
    with pytest.raises(TraceCodecError):
        decode_trace(_PAYLOAD[:cut])


@given(position=st.integers(0, len(_PAYLOAD) - 1),
       flip=st.integers(1, 255))
@settings(max_examples=60, deadline=None)
def test_corrupted_payload_is_rejected(position, flip):
    corrupted = bytearray(_PAYLOAD)
    corrupted[position] ^= flip
    with pytest.raises(TraceCodecError):
        decode_trace(bytes(corrupted))

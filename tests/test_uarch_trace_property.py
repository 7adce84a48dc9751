"""Property-based bit-identity and pickle round trips for the trace engine.

The columnar :class:`~repro.uarch.trace.ActivityTrace` replaced the
seed's per-cycle object-graph recording; the seed recorder lives on in
``tests/oracles.py`` as the reference.  On the in-order side
:func:`~tests.oracles.run_legacy` drives the seed core
(:class:`~tests.oracles.SeedPipeline`), so those properties hold the
compiled core and its trace together to the seed.  These properties pin
the equivalence over *arbitrary* generated programs — not just the
canned kernels the unit tests use — on both cores and under ALU fault
injection, and pin pickling: a trace pickles its own columns, comes
back identical, and parts that do not fit this build's latch schema
raise :class:`TraceCodecError`.  Truncated or corrupted disk entries
are the trace cache's concern (``tests/test_trace_cache.py``).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.leakage.debugging import (buggy_multiplier,
                                     multiplier_stress_program)
from repro.robustness import TraceCodecError
from repro.uarch import run_program, run_program_ooo
from repro.uarch.trace import _restore
from repro.workloads import fibonacci
from repro.workloads.generators import RandomProgramBuilder

from .oracles import assert_traces_identical, run_legacy


def _random_program(seed, length, **builder_options):
    builder = RandomProgramBuilder(seed=seed, **builder_options)
    return builder.program(length, name=f"prop_{seed}_{length}")


_SEEDS = st.integers(0, 2**16 - 1)
_LENGTHS = st.integers(4, 40)


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


@given(seed=_SEEDS, length=_LENGTHS, ooo=st.booleans())
@settings(max_examples=15, deadline=None)
def test_pickle_round_trip_is_identical(seed, length, ooo):
    program = _random_program(seed, length)
    trace, _ = run_program_ooo(program) if ooo else run_program(program)
    restored = pickle.loads(pickle.dumps(trace, pickle.HIGHEST_PROTOCOL))
    assert_traces_identical(trace, restored)
    # retired rows still point at their instruction-table entries
    assert _table_codes(restored) == _table_codes(trace)


def _table_codes(trace):
    """Each retired row's instruction-table index (None if outside)."""
    codes = {id(instr): code
             for code, instr in enumerate(trace._instr_table)}
    return [codes.get(id(row[2])) for row in trace._retire_rows]


def _short_matrix(values, packed):
    return values[:, :-1], packed


def _short_columns(values, packed):
    return values, tuple(column[:-1] for column in packed)


def _long_columns(values, packed):
    return values, tuple(np.append(column, column[-1:]) for column in packed)


@pytest.mark.parametrize("mangle", [_short_matrix, _short_columns,
                                    _long_columns],
                         ids=["matrix-column-short", "columns-cycle-short",
                              "columns-cycle-long"])
def test_restore_rejects_parts_off_the_latch_schema(mangle):
    restore, parts = run_program(fibonacci(6))[0].__reduce__()
    assert restore is _restore
    values, packed = mangle(*parts[:2])
    with pytest.raises(TraceCodecError):
        _restore(values, packed, *parts[2:])

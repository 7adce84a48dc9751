"""Transition-vector extraction and flip counting (paper §III-B).

Bridges the microarchitectural trace and the EM model: per-stage
transition-bit matrices for the regression activity model (Eq. 8), and the
flip-count statistics behind the naive averaging activity factor (Eq. 7).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..uarch.latches import (STAGES, STAGE_REGISTERS, stage_bit_count,
                             stage_register_offsets)
from ..uarch.trace import ActivityTrace


def stage_feature_names(stage: str) -> list:
    """Names of the activity-regression features for ``stage``.

    The design is [per-register flip counts | raw transition bits]: the
    counts summarize how much each latch register switched (a strong
    aggregate predictor when many bits carry similar weight), the raw bits
    let the regression single out the heavy wires the paper identified
    (ALU output, memory buses).
    """
    names = [f"count:{name}" for name, _ in STAGE_REGISTERS[stage]]
    for register, (_, width) in stage_register_offsets(stage).items():
        names.extend(f"bit:{register}[{bit}]" for bit in range(width))
    return names


def _feature_tables():
    """Per-stage (register, bit shift, is-count) of every design column."""
    tables = {}
    for stage in STAGES:
        widths = [width for _, width in STAGE_REGISTERS[stage]]
        registers = list(range(len(widths)))
        shifts = [0] * len(widths)
        for register, width in enumerate(widths):
            registers.extend([register] * width)
            shifts.extend(range(width))
        is_count = np.arange(len(registers)) < len(widths)
        tables[stage] = (np.asarray(registers, dtype=np.intp),
                         np.asarray(shifts, dtype=np.uint64), is_count)
    return tables


_FEATURES = _feature_tables()

# The memory order NumPy gives ``full[:, columns]``.  A selection is laid
# out the same way, so ``selection @ coefficients`` runs the same BLAS
# call, and rounds the same way, as it does on the full design.
_SELECTION_ORDER = "F" if np.empty((3, 4))[:, [0, 2]].flags.f_contiguous \
    else "C"

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of every element of a ``uint64`` array (SWAR: NumPy
    before 2.0 has no ``bitwise_count``)."""
    words = words - ((words >> np.uint64(1)) & _M1)
    words = (words & _M2) + ((words >> np.uint64(2)) & _M2)
    words = (words + (words >> np.uint64(4))) & _M4
    return (words * _H01) >> np.uint64(56)


def stage_design_matrix(trace: ActivityTrace, stage: str,
                        columns: Optional[Sequence[int]] = None
                        ) -> np.ndarray:
    """(cycles, registers + bits) activity-regression design for a stage.

    Column layout matches :func:`stage_feature_names`: per-register flip
    counts, then every transition bit, from the XOR of adjacent latch
    rows (cycle 0 against the all-zero reset state); counts are integer
    popcounts, bits are shifted and masked out.  ``columns`` selects
    design columns and builds only those: the result equals
    ``stage_design_matrix(trace, stage)[:, columns]`` in values and in
    memory order.  This is the one-trace call of
    :func:`stage_design_matrices`.
    """
    return stage_design_matrices((trace,), stage, columns)


def stage_design_matrices(traces: Sequence[ActivityTrace], stage: str,
                          columns: Optional[Sequence[int]] = None
                          ) -> np.ndarray:
    """The designs of many traces, stacked row-wise in trace order.

    One XOR/popcount/bit-shift pass over the traces' stacked latch rows;
    the XOR restarts at each trace's first row (compared with the
    all-zero reset state), so the result equals ``np.vstack`` of the
    per-trace :func:`stage_design_matrix` results in values, and is laid
    out in the same memory order.  Every entry is an exact integer
    stored as a float, so gathering rows from one batched build hands a
    fit exactly the rows the per-trace builds would.
    """
    registers, shifts, is_count = _FEATURES[stage]
    if columns is None:
        order = "C"
    else:
        columns = np.asarray(columns, dtype=np.intp)
        registers, shifts, is_count = (registers[columns],
                                       shifts[columns], is_count[columns])
        order = _SELECTION_ORDER
    blocks = [trace.values_matrix(stage) for trace in traces]
    # one trace XORs straight from its own (read-only) rows: no copy
    values = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    xor = np.empty(values.shape, dtype=values.dtype)
    np.bitwise_xor(values[1:], values[:-1], out=xor[1:])
    first = 0
    for block in blocks:  # each trace's first row: XOR with zero
        if len(block):
            xor[first] = block[0]
        first += len(block)
    design = np.empty((xor.shape[0], registers.size), order=order)
    if is_count.any():
        design[:, is_count] = _popcount(xor[:, registers[is_count]])
    is_bit = ~is_count
    if is_bit.any():
        design[:, is_bit] = (xor[:, registers[is_bit]] >>
                             shifts[is_bit]) & np.uint64(1)
    return design


def average_alpha(flips_new: np.ndarray, flips_base: float,
                  stage: str) -> np.ndarray:
    """Eq. 7: ``alpha = 1 + (flips_new - flips_base) / flips_total``.

    ``flips_total`` is the maximum possible number of flips, i.e. the
    stage's tracked bit count.
    """
    flips_total = stage_bit_count(stage)
    return 1.0 + (np.asarray(flips_new, dtype=float) - flips_base) / \
        flips_total

"""Transition-vector extraction and flip counting (paper §III-B).

Bridges the microarchitectural trace and the EM model: per-stage
transition-bit matrices for the regression activity model (Eq. 8), and the
flip-count statistics behind the naive averaging activity factor (Eq. 7).
"""

from __future__ import annotations

import functools
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

# The memory orders NumPy gives ``full[:, columns]`` and
# ``full[:, columns][rows]``.  A selection is laid out the same way, so
# ``selection @ coefficients`` runs the same BLAS call, and rounds the
# same way, as it does on the full design.
_SELECTION_ORDER = "F" if np.empty((3, 4))[:, [0, 2]].flags.f_contiguous \
    else "C"
_ROW_SELECTION_ORDER = "F" if np.empty((4, 5))[:, [0, 2, 3]][[0, 2]] \
    .flags.f_contiguous else "C"

def stage_design_matrix(trace: ActivityTrace, stage: str,
                        columns: Optional[Sequence[int]] = None
                        ) -> np.ndarray:
    """(cycles, registers + bits) activity-regression design for a stage.

    Column layout matches :func:`stage_feature_names`: per-register flip
    counts, then every transition bit, from the XOR of adjacent latch
    rows (cycle 0 against the all-zero reset state); counts are
    ``np.bitwise_count`` popcounts, bits are shifted and masked out.
    ``columns`` selects design columns and builds only those: the
    result equals ``stage_design_matrix(trace, stage)[:, columns]`` in
    values and in memory order.  This is the one-trace call of
    :func:`stage_design_matrices`.
    """
    return stage_design_matrices((trace,), stage, columns)


def stage_design_matrices(traces: Sequence[ActivityTrace], stage: str,
                          columns: Optional[Sequence[int]] = None,
                          rows: Optional[np.ndarray] = None
                          ) -> np.ndarray:
    """The designs of many traces, stacked row-wise in trace order.

    One pass over the traces' stacked latch rows: an XOR, a hardware
    popcount (``np.bitwise_count``) per count column and a shift and
    mask per bit column.  The XOR restarts at each trace's first row
    (compared with the all-zero reset state), so the result equals
    ``np.vstack`` of the per-trace :func:`stage_design_matrix` results
    in values, and is laid out in the same memory order.  Every entry
    is an exact integer stored as a float, so gathering rows from one
    batched build hands a fit exactly the rows the per-trace builds
    would.

    Only the latch registers that the selected ``columns`` read are
    XORed.  ``rows`` (indices into the stacked rows, or a boolean mask
    over them) keeps only those rows: every row is still XORed with its
    predecessor, but only the kept ones are popcounted and shifted, and
    the result equals ``full[:, columns][rows]`` in values and memory
    order.
    """
    if columns is None:
        order, key = "C", None
    else:
        key = np.asarray(columns, dtype=np.intp).tobytes()
        order = _SELECTION_ORDER if rows is None else _ROW_SELECTION_ORDER
    read, is_count, count_registers, is_bit, bit_registers, bit_shifts = \
        _selection(stage, key)
    blocks = [trace.values_matrix(stage) for trace in traces]
    # one trace XORs straight from its own (read-only) rows: no copy
    values = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    if read is not None:
        values = values[:, read]
    xor = np.empty(values.shape, dtype=values.dtype)
    np.bitwise_xor(values[1:], values[:-1], out=xor[1:])
    first = 0
    for block in blocks:  # each trace's first row: XOR with zero
        if len(block):
            xor[first] = values[first]
        first += len(block)
    if rows is not None:
        xor = xor[rows]
    design = np.empty((xor.shape[0], is_count.size), order=order)
    if count_registers.size:
        design[:, is_count] = np.bitwise_count(xor[:, count_registers])
    if bit_registers.size:
        design[:, is_bit] = (xor[:, bit_registers] >> bit_shifts) & \
            np.uint64(1)
    return design


@functools.lru_cache(maxsize=256)
def _selection(stage: str, key: Optional[bytes]) -> tuple:
    """What a build of ``stage``'s columns ``key`` (their ``intp`` bytes,
    ``None`` for the whole design) reads: the latch registers it XORs
    (``None`` when it reads every one), which columns are counts and
    which are bits, and each one's register among those read and, for
    bits, its shift.  Memoized: a model builds the same selection for
    every trace it predicts."""
    registers, shifts, is_count = _FEATURES[stage]
    if key is not None:
        columns = np.frombuffer(key, dtype=np.intp)
        registers, shifts, is_count = (registers[columns],
                                       shifts[columns], is_count[columns])
    read, registers = np.unique(registers, return_inverse=True)
    if read.size == len(STAGE_REGISTERS[stage]):
        read = None
    is_bit = ~is_count
    return (read, is_count, registers[is_count], is_bit, registers[is_bit],
            shifts[is_bit])


def average_alpha(flips_new: np.ndarray, flips_base: float,
                  stage: str) -> np.ndarray:
    """Eq. 7: ``alpha = 1 + (flips_new - flips_base) / flips_total``.

    ``flips_total`` is the maximum possible number of flips, i.e. the
    stage's tracked bit count.
    """
    flips_total = stage_bit_count(stage)
    return 1.0 + (np.asarray(flips_new, dtype=float) - flips_base) / \
        flips_total

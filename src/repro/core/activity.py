"""Transition-vector extraction and flip counting (paper §III-B).

Bridges the microarchitectural trace and the EM model: per-stage
transition-bit matrices for the regression activity model (Eq. 8), and the
flip-count statistics behind the naive averaging activity factor (Eq. 7).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..uarch.latches import (STAGES, STAGE_REGISTERS, stage_bit_count,
                             stage_register_offsets)
from ..uarch.trace import ActivityTrace


def stage_transition_matrices(trace: ActivityTrace) -> Dict[str, np.ndarray]:
    """Per-stage (cycles, bits) transition matrices for one trace."""
    return {stage: trace.transition_matrix(stage) for stage in STAGES}


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
    memory order.
    """
    registers, shifts, is_count = _FEATURES[stage]
    if columns is None:
        order = "C"
    else:
        columns = np.asarray(columns, dtype=np.intp)
        registers, shifts, is_count = (registers[columns],
                                       shifts[columns], is_count[columns])
        order = _SELECTION_ORDER
    values = trace.values_matrix(stage)
    xor = np.array(values)
    xor[1:] ^= values[:-1]
    design = np.empty((xor.shape[0], registers.size), order=order)
    if is_count.any():
        design[:, is_count] = _popcount(xor[:, registers[is_count]])
    is_bit = ~is_count
    if is_bit.any():
        design[:, is_bit] = (xor[:, registers[is_bit]] >>
                             shifts[is_bit]) & np.uint64(1)
    return design


def stage_flip_counts(trace: ActivityTrace) -> Dict[str, np.ndarray]:
    """Per-stage (cycles,) flip-count vectors for one trace."""
    return {stage: trace.flip_counts(stage) for stage in STAGES}


def average_alpha(flips_new: np.ndarray, flips_base: float,
                  stage: str) -> np.ndarray:
    """Eq. 7: ``alpha = 1 + (flips_new - flips_base) / flips_total``.

    ``flips_total`` is the maximum possible number of flips, i.e. the
    stage's tracked bit count.
    """
    flips_total = stage_bit_count(stage)
    return 1.0 + (np.asarray(flips_new, dtype=float) - flips_base) / \
        flips_total

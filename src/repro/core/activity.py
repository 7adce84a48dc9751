"""Transition-vector extraction and flip counting (paper §III-B).

Bridges the microarchitectural trace and the EM model: per-stage
transition-bit matrices for the regression activity model (Eq. 8), and the
flip-count statistics behind the naive averaging activity factor (Eq. 7).
"""

from __future__ import annotations

from typing import Dict

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


def stage_design_matrix(trace: ActivityTrace, stage: str) -> np.ndarray:
    """(cycles, registers + bits) activity-regression design for a stage.

    Column layout matches :func:`stage_feature_names`.
    """
    bits = trace.transition_matrix(stage).astype(float)
    offsets = stage_register_offsets(stage)
    counts = np.stack(
        [bits[:, start:start + width].sum(axis=1)
         for _, (start, width) in sorted(offsets.items(),
                                         key=lambda item: item[1][0])],
        axis=1)
    return np.hstack([counts, bits])


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

"""Simple power/EM analysis (SPA) on simulated signals.

Demonstrates the design-stage workflow the paper's introduction motivates:
software developers can "detect and mitigate information leakage problems
for security-sensitive applications" from *simulated* signals alone.  The
target is square-and-multiply modular exponentiation
(:mod:`repro.workloads.crypto`): each exponent bit that is 1 costs an
extra multiply, which stretches that loop iteration — recoverable from
the signal envelope with no hardware access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..uarch.trace import ActivityTrace
from ..workloads.crypto import DONE_SYMBOL, LOOP_SYMBOL


def iteration_starts(trace: ActivityTrace, program) -> List[int]:
    """Cycles at which each exponent-bit loop iteration begins.

    Anchored on retirement of the loop-head instruction.  An attacker
    locates these boundaries by pattern-matching the square-step template
    in the signal; with the simulator we read them from the trace, which
    is equivalent and exact.
    """
    loop_pc = program.symbols[LOOP_SYMBOL]
    return [entry.cycle for entry in trace.retired
            if entry.pc == loop_pc]


def _iteration_end(trace: ActivityTrace, program) -> int:
    """Retire cycle of the first instruction after the loop."""
    done_pc = program.symbols[DONE_SYMBOL]
    for entry in trace.retired:
        if entry.pc == done_pc:
            return entry.cycle
    return trace.retired[-1].cycle


@dataclass
class SpaResult:
    """Outcome of a timing-envelope SPA against modexp."""

    durations: List[int]          # cycles per bit iteration
    recovered_bits: List[int]     # MSB first
    threshold: float

    def exponent(self) -> int:
        """Recovered exponent as an integer (MSB-first bits)."""
        value = 0
        for bit in self.recovered_bits:
            value = (value << 1) | bit
        return value


def recover_exponent(trace: ActivityTrace, program,
                     threshold: Optional[float] = None) -> SpaResult:
    """Recover exponent bits from per-iteration durations.

    Iterations containing the conditional multiply take visibly longer;
    a threshold between the two duration clusters classifies each bit.
    For a constant-time implementation all durations collapse to one
    cluster and the recovery degenerates to guessing.
    """
    starts = iteration_starts(trace, program)
    if len(starts) < 2:
        raise ValueError("no loop iterations found in trace")
    ends = starts[1:] + [_iteration_end(trace, program)]
    durations = [end - start for start, end in zip(starts, ends)]
    if threshold is None:
        # split at the widest gap between sorted durations: robust to
        # small prediction-history jitter within each cluster
        ordered = sorted(durations)
        gaps = [(b - a, (a + b) / 2.0)
                for a, b in zip(ordered[:-1], ordered[1:])]
        threshold = max(gaps)[1] if gaps and max(gaps)[0] > 0 else \
            ordered[0] + 0.5
    bits = [1 if duration > threshold else 0 for duration in durations]
    return SpaResult(durations=durations, recovered_bits=bits,
                     threshold=float(threshold))


def duration_separation(durations: Sequence[int]) -> float:
    """Gap between the two duration clusters, normalized by their spread.

    Reported in clock cycles: the conditional multiply costs ~15 cycles
    for the leaky implementation, while constant-time code collapses the
    gap to prediction jitter (a cycle or two).  Used to *quantify* how
    mitigations close the SPA channel.
    """
    durations = np.asarray(durations, dtype=float)
    if np.ptp(durations) == 0:
        return 0.0
    ordered = np.sort(durations)
    gaps = ordered[1:] - ordered[:-1]
    return float(gaps.max())

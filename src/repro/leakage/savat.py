"""SAVAT: Signal Available to Attacker (paper §VI-A, Table II).

Callan et al.'s metric: alternate bursts of instruction A and instruction B
with period ``t_p``; the energy of the resulting spectral spike at
``f_p = 1/t_p`` measures how much signal an attacker gets for deciding
whether A or B executed.  Table II evaluates the pairs over
{LDM (load-miss), LDC (load-hit), NOP, ADD, MUL, DIV}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..isa.instructions import Instruction, NOP
from ..isa.program import Program
from ..observability import record_campaign
from ..parallel import resolve_workers, supervised_map
from ..robustness.checkpoint import content_key, open_journal
from ..robustness.errors import ProbeError
from ..signal.spectrum import harmonic_energy
from ..workloads.generators import wrap_program

SAVAT_INSTRUCTIONS = ("LDM", "LDC", "NOP", "ADD", "MUL", "DIV")
"""The instruction set of the paper's Table II."""

# scratch region large enough that stride-by-line LDM accesses never hit
_LDM_REGION_BYTES = 256 * 1024
_LINE_BYTES = 32


# Approximate cycles per dynamic instance on the default core, used to
# equalize the two half-periods of the alternation (the paper's "for half
# of the period A is executing and for the other half B").
_CYCLES_PER_INSTANCE = {"NOP": 1, "ADD": 1, "MUL": 3, "DIV": 8,
                        "LDC": 2, "LDM": 5}


def _savat_burst(kind: str, burst_cycles: int, pointer_reg: int = 9
                 ) -> List[Instruction]:
    """One burst lasting about ``burst_cycles`` cycles of one instruction.

    LDM walks a large region line-by-line so every access misses; LDC
    hammers one (warmed) address so every access hits.
    """
    count = max(1, burst_cycles // _CYCLES_PER_INSTANCE.get(kind, 1))
    if kind == "NOP":
        return [NOP] * count
    if kind == "ADD":
        return [Instruction("add", rd=5, rs1=6, rs2=7)] * count
    if kind == "MUL":
        return [Instruction("mul", rd=5, rs1=6, rs2=7)] * count
    if kind == "DIV":
        return [Instruction("div", rd=5, rs1=6, rs2=7)] * count
    if kind == "LDC":
        return [Instruction("lw", rd=5, rs1=3, imm=0)] * count
    if kind == "LDM":
        code = []
        for _ in range(count):
            code.append(Instruction("lw", rd=5, rs1=pointer_reg, imm=0))
            code.append(Instruction("addi", rd=pointer_reg,
                                    rs1=pointer_reg, imm=_LINE_BYTES))
        return code
    raise ProbeError(f"unknown SAVAT instruction {kind!r}")


def savat_program(kind_a: str, kind_b: str, repeats: int = 12,
                  burst: int = 24) -> Program:
    """The A/B alternation microbenchmark of Callan et al.

    ``repeats`` periods of (~``burst`` cycles of A, ~``burst`` cycles of
    B), unrolled so no loop-control signal pollutes the alternation
    spectrum.
    """
    code: List[Instruction] = []
    # operand setup: non-trivial values so ADD/MUL/DIV switch realistically
    code.append(Instruction("lui", rd=6, imm=0x55555))
    code.append(Instruction("addi", rd=6, rs1=6, imm=0x555))
    code.append(Instruction("lui", rd=7, imm=0x0F0F1))
    code.append(Instruction("addi", rd=7, rs1=7, imm=0x333))
    # x9 walks the LDM region (starts at scratch base via gp in x3)
    code.append(Instruction("add", rd=9, rs1=3, rs2=0))
    # warm the LDC target line
    code.append(Instruction("lw", rd=5, rs1=3, imm=0))
    for _ in range(repeats):
        code.extend(_savat_burst(kind_a, burst))
        code.extend(_savat_burst(kind_b, burst))
    return wrap_program(code, name=f"savat_{kind_a}_{kind_b}",
                        seed_registers=True)


@dataclass
class SavatMeasurement:
    """SAVAT value for one instruction pair."""

    kind_a: str
    kind_b: str
    value: float
    period_cycles: float
    repeats: int


@dataclass
class SimulatorSignalSource:
    """Picklable ``program -> (signal, num_cycles)`` source over EMSim.

    Wraps any object with a ``simulate(program)`` method returning a
    :class:`~repro.core.simulator.SimulatedSignal`; being a plain
    dataclass (rather than a lambda) it survives the pickling that
    ``savat_matrix`` pool workers need under the spawn start method.
    """

    simulator: object

    def __call__(self, program: Program) -> Tuple[np.ndarray, int]:
        result = self.simulator.simulate(program)
        return result.signal, result.num_cycles


def _matrix_pair(signal_source: Callable[[Program], Tuple[np.ndarray, int]],
                 samples_per_cycle: int, repeats: int, burst: int,
                 pair: Tuple[str, str]) -> SavatMeasurement:
    """Measure one (A, B) pair of a :func:`savat_matrix` sweep."""
    kind_a, kind_b = pair
    return savat_pair(signal_source, kind_a, kind_b, samples_per_cycle,
                      repeats=repeats, burst=burst)


def savat_value(signal: np.ndarray, samples_per_cycle: int,
                num_cycles: int, repeats: int,
                harmonics: int = 4) -> float:
    """Spike energy at the alternation frequency of a SAVAT capture.

    The period is inferred from the actual cycle count (stalls stretch
    it), exactly as one would locate the spike on a real spectrum.  The
    energy sums the fundamental and its first few harmonics: two
    instructions that differ in temporal *structure* (e.g. a missing vs
    hitting load) place alternation energy above the fundamental.
    """
    period_cycles = num_cycles / repeats
    alternation_frequency = 1.0 / period_cycles  # cycles^-1
    return harmonic_energy(signal, float(samples_per_cycle),
                           alternation_frequency, harmonics=harmonics)


def savat_pair(signal_source: Callable[[Program], Tuple[np.ndarray, int]],
               kind_a: str, kind_b: str, samples_per_cycle: int,
               repeats: int = 12, burst: int = 24) -> SavatMeasurement:
    """Measure SAVAT for one pair through an arbitrary signal source.

    ``signal_source`` maps a program to ``(signal, num_cycles)`` — the
    real bench and EMSim both fit this interface, which is how Table II
    compares the R and S columns.
    """
    program = savat_program(kind_a, kind_b, repeats=repeats, burst=burst)
    signal, num_cycles = signal_source(program)
    # the whole capture is analysed, setup prefix and drain included, so
    # the period (num_cycles / repeats) is slightly longer than one A/B
    # alternation
    value = savat_value(signal, samples_per_cycle, num_cycles, repeats)
    return SavatMeasurement(kind_a=kind_a, kind_b=kind_b, value=value,
                            period_cycles=num_cycles / repeats,
                            repeats=repeats)


def savat_matrix(signal_source: Callable[[Program],
                                         Tuple[np.ndarray, int]],
                 samples_per_cycle: int,
                 kinds: Sequence[str] = SAVAT_INSTRUCTIONS,
                 repeats: int = 12,
                 burst: int = 24,
                 workers: int = 1,
                 pairs: "Sequence[Tuple[str, str]] | None" = None,
                 item_timeout: "float | None" = None,
                 max_item_retries: int = 2,
                 checkpoint: "str | None" = None,
                 resume: bool = False
                 ) -> Dict[Tuple[str, str], float]:
    """The full Table-II matrix of SAVAT values for all ordered pairs.

    With ``workers > 1`` the pairs fan out over a process pool (results
    are deterministic for deterministic sources and come back in the
    same pair order); ``workers=1`` runs them in-process.  An explicit
    ``pairs`` sequence restricts the sweep to those ordered pairs (the
    CLI's ``--pairs``) instead of the full ``kinds`` square.

    The fan-out is supervised at every worker count (see
    :mod:`repro.parallel`): ``item_timeout`` bounds each pair's wall
    clock, failures retry up to ``max_item_retries`` times, and
    ``checkpoint`` names a journal file (``resume=True`` replays
    completed pairs from it).  Table II needs every cell, so a pair
    still missing after supervision raises
    :class:`~repro.robustness.errors.CampaignError`.  A kind outside
    :data:`SAVAT_INSTRUCTIONS` raises
    :class:`~repro.robustness.errors.ProbeError` before any pair runs,
    at every worker count.
    """
    if pairs is None:
        pairs = [(kind_a, kind_b) for kind_a in kinds for kind_b in kinds]
    else:
        pairs = list(pairs)
    for pair in pairs:
        for kind in pair:
            if kind not in SAVAT_INSTRUCTIONS:
                raise ProbeError(f"unknown SAVAT instruction {kind!r}")
    meta = {"campaign": "savat", "repeats": int(repeats),
            "burst": int(burst),
            "samples_per_cycle": int(samples_per_cycle)}

    def key_for(index: int, pair: Tuple[str, str]) -> str:
        return content_key("savat", pair[0], pair[1], repeats, burst,
                           samples_per_cycle)

    with record_campaign("savat", dict(
            meta, pairs=len(pairs),
            workers=resolve_workers(workers))) as recording:
        with open_journal(checkpoint, meta, resume) as journal:
            measurements, ledger = supervised_map(
                partial(_matrix_pair, signal_source, samples_per_cycle,
                        repeats, burst),
                pairs, workers=workers, timeout=item_timeout,
                max_item_retries=max_item_retries, journal=journal,
                key_for=key_for)
        recording.checkpoint(checkpoint)
        recording.ledger(ledger)
    ledger.require_complete("SAVAT sweep", "pairs")
    return {(m.kind_a, m.kind_b): m.value for m in measurements}


def format_matrix(matrix: Dict[Tuple[str, str], float],
                  kinds: Sequence[str] = SAVAT_INSTRUCTIONS,
                  scale: float = 1.0) -> str:
    """Render a SAVAT matrix as the paper's Table II layout."""
    header = "      " + "".join(f"{kind:>8s}" for kind in kinds)
    lines = [header]
    for kind_a in kinds:
        row = f"{kind_a:<6s}"
        for kind_b in kinds:
            row += f"{scale * matrix[(kind_a, kind_b)]:8.2f}"
        lines.append(row)
    return "\n".join(lines)

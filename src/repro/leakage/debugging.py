"""Hardware debugging via EM reference signals (paper §VI-B, Fig. 11).

EMSim's signal is treated as the *expected* ("golden") emission; a
significant deviation of the measured signal from it localizes a hardware
bug — with zero on-chip test infrastructure.  The paper's case study is a
multiplier that silently uses only the lower 8 bits of each 16-bit
operand, radiating much less than it should in its final Execute cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..isa.instructions import Instruction
from ..robustness.errors import ConfigurationError
from ..signal.metrics import per_cycle_similarities
from ..uarch.trace import EM_INDEX, ActivityTrace


def buggy_multiplier(instr: Instruction, a: int, b: int) -> Optional[int]:
    """The paper's Fig. 11 defect: MUL only multiplies the low 8 bits.

    Returns None for non-MUL instructions so the healthy ALU handles
    them (this is the ``alu_bug`` hook signature of the pipeline).
    """
    if instr.name != "mul":
        return None
    return ((a & 0xFF) * (b & 0xFF)) & 0xFFFFFFFF


@dataclass
class Deviation:
    """One suspicious cycle where the measurement left the reference."""

    cycle: int
    similarity: float
    stage_labels: List[str]

    def __str__(self) -> str:
        labels = ", ".join(f"{stage}={label}" for stage, label in
                           zip("FDEMW", self.stage_labels))
        return (f"cycle {self.cycle}: similarity {self.similarity:.2f} "
                f"({labels})")


@dataclass
class DebugReport:
    """Outcome of matching a measured signal against the reference."""

    deviations: List[Deviation]
    mean_similarity: float
    threshold: float

    @property
    def suspicious(self) -> bool:
        """True when any cycle deviates beyond the detection threshold."""
        return bool(self.deviations)

    def implicated_instructions(self) -> List[str]:
        """Execute-stage occupants at the deviating cycles (most bugs in
        the paper's scenario live in a functional unit)."""
        return sorted({dev.stage_labels[2] for dev in self.deviations})


def multiplier_stress_program(num_muls: int = 32, seed: int = 5,
                              padding: int = 3):
    """Unrolled sequence of MULs with random 32-bit operands.

    Drives the multiplier hard so its final-cycle emission statistics are
    well sampled; the buggy low-8-bit multiplier produces far fewer result
    bit-flips on wide random operands.
    """
    import random

    from ..isa.instructions import NOP
    from ..workloads.generators import wrap_program

    rng = random.Random(seed)
    code = []
    for _ in range(num_muls):
        for register in (8, 9):
            value = rng.getrandbits(32)
            upper = ((value + 0x800) >> 12) & 0xFFFFF
            lower = value & 0xFFF
            if lower >= 0x800:
                lower -= 0x1000
            code.append(Instruction("lui", rd=register, imm=upper))
            code.append(Instruction("addi", rd=register, rs1=register,
                                    imm=lower))
        code.append(Instruction("mul", rd=5, rs1=8, rs2=9))
        code.extend([NOP] * padding)
    return wrap_program(code, name=f"mul_stress_{num_muls}",
                        seed_registers=True)


@dataclass
class UnitCheck:
    """Relative amplitude check of one functional unit's signature."""

    em_class: str
    unit_ratio: float        # measured/simulated at the unit's cycles
    global_ratio: float      # measured/simulated at all other active cycles
    cycles_checked: int
    tolerance: float

    @property
    def relative_deficit(self) -> float:
        """How far below the global calibration the unit's emission sits
        (0 = perfectly consistent, >0 = unit quieter than expected)."""
        if self.global_ratio == 0:
            return 0.0
        return 1.0 - self.unit_ratio / self.global_ratio

    @property
    def suspicious(self) -> bool:
        """True when the unit radiates significantly less than the
        reference model predicts, relative to the rest of the chip."""
        return self.relative_deficit > self.tolerance


def unit_relative_check(simulated_amplitudes: np.ndarray,
                        measured_amplitudes: np.ndarray,
                        trace: ActivityTrace,
                        em_class: str = "muldiv_final",
                        stage: str = "E",
                        tolerance: float = 0.15) -> UnitCheck:
    """Check one unit's emissions against the EMSim reference.

    Compares the measured/simulated amplitude ratio at the cycles where
    ``em_class`` is active in ``stage`` against the same ratio elsewhere.
    Self-calibrating: a global model bias affects both ratios equally, so
    only a *localized* deficit — the paper's broken-multiplier signature —
    trips the check.
    """
    cycles = min(len(simulated_amplitudes), len(measured_amplitudes),
                 trace.num_cycles)
    active = trace.active_mask(stage)[:cycles]
    in_unit = active & (trace.em_codes(stage)[:cycles] ==
                        EM_INDEX.get(em_class, -1))
    unit_cycles = np.flatnonzero(in_unit)
    other_cycles = np.flatnonzero(active & ~in_unit)
    if not unit_cycles.size:
        raise ValueError(f"no active {em_class!r} cycles in trace")

    def ratio(indices):
        sim_sum = float(np.abs(simulated_amplitudes[indices]).sum())
        meas_sum = float(np.abs(measured_amplitudes[indices]).sum())
        return meas_sum / sim_sum if sim_sum > 0 else 0.0

    return UnitCheck(em_class=em_class,
                     unit_ratio=ratio(unit_cycles),
                     global_ratio=ratio(other_cycles),
                     cycles_checked=int(unit_cycles.size),
                     tolerance=tolerance)


def calibrated_deficit(test: "UnitCheck", calibration: "UnitCheck") -> float:
    """Unit-emission deficit of a device under test vs a known-good unit.

    Both checks are run against the same EMSim reference, so any model
    bias at the unit's cycles cancels; what remains is how much quieter
    the tested device's unit is than the golden device's.  Positive values
    mean the unit radiates less than it should (the Fig. 11 signature).
    """
    test_rel = test.unit_ratio / test.global_ratio
    calibration_rel = calibration.unit_ratio / calibration.global_ratio
    if calibration_rel == 0:
        return 0.0
    return 1.0 - test_rel / calibration_rel


def compare_to_reference(reference_signal: np.ndarray,
                         measured_signal: np.ndarray,
                         trace: ActivityTrace,
                         samples_per_cycle: int,
                         threshold: float = 0.6) -> DebugReport:
    """Flag cycles where the measured signal deviates from the reference.

    ``trace`` must be the reference (simulated) execution so deviating
    cycles can be attributed to the instructions in flight.  Raises
    :class:`~repro.robustness.errors.ConfigurationError` when the
    signals hold less than one whole cycle, as
    :func:`~repro.signal.metrics.simulation_accuracy` does.
    """
    scores = per_cycle_similarities(reference_signal, measured_signal,
                                    samples_per_cycle)
    if scores.size == 0:
        raise ConfigurationError(
            f"a reference comparison needs at least one whole cycle of "
            f"{samples_per_cycle} samples; the signals hold "
            f"{len(reference_signal)} and {len(measured_signal)}")
    deviations = []
    for cycle, score in enumerate(scores):
        if score >= threshold or cycle >= trace.num_cycles:
            continue
        labels = [trace.occupancy[stage][cycle].label()
                  for stage in ("F", "D", "E", "M", "W")]
        deviations.append(Deviation(cycle=cycle, similarity=float(score),
                                    stage_labels=labels))
    return DebugReport(deviations=deviations,
                       mean_similarity=float(scores.mean()),
                       threshold=threshold)

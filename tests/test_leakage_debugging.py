"""Tests for the hardware-debugging use case (repro.leakage.debugging)."""

import warnings

import numpy as np
import pytest

from repro.isa import Instruction
from repro.leakage.debugging import (buggy_multiplier, calibrated_deficit,
                                     compare_to_reference,
                                     multiplier_stress_program,
                                     unit_relative_check)
from repro.robustness import ConfigurationError
from repro.uarch import GoldenSimulator, run_program


def test_buggy_multiplier_semantics():
    mul = Instruction("mul", rd=1, rs1=2, rs2=3)
    # only the low bytes participate
    assert buggy_multiplier(mul, 0x1234_5603, 0xABCD_EF05) == 15
    assert buggy_multiplier(mul, 0xFF, 0xFF) == 0xFF * 0xFF
    # other instructions pass through untouched
    add = Instruction("add", rd=1, rs1=2, rs2=3)
    assert buggy_multiplier(add, 5, 6) is None


def test_buggy_core_computes_wrong_products():
    program = multiplier_stress_program(4, seed=1)
    healthy_trace, healthy = run_program(program)
    buggy_trace, buggy = run_program(program, alu_bug=buggy_multiplier)
    assert healthy.regfile.peek(5) != buggy.regfile.peek(5)
    # timing is unchanged: the bug is silent architecturally-in-time
    assert healthy_trace.num_cycles == buggy_trace.num_cycles


def test_stress_program_structure():
    program = multiplier_stress_program(8, seed=2)
    muls = [instr for instr in program.instructions
            if instr.name == "mul"]
    assert len(muls) == 8
    golden = GoldenSimulator(program)
    golden.run(max_steps=100_000)
    assert golden.halted


def test_unit_relative_check_self_consistency(device):
    """A device checked against its own (trained) reference shows the
    same unit/global ratio — no false positive."""
    from repro.core import EMSim, train_emsim
    from repro.signal import estimate_cycle_amplitudes

    model = train_emsim(device)
    simulator = EMSim(model, core_config=device.core_config)
    program = multiplier_stress_program(16)
    reference = simulator.simulate(program)

    def check(dut):
        measurement = dut.capture_ideal(program)
        amplitudes = estimate_cycle_amplitudes(
            measurement.signal, model.config.kernel,
            device.samples_per_cycle)
        return unit_relative_check(reference.amplitudes, amplitudes,
                                   reference.trace)

    from repro.hardware import HardwareDevice
    calibration = check(device)
    assert calibration.cycles_checked == 16
    healthy = check(HardwareDevice())
    buggy = check(HardwareDevice(alu_bug=buggy_multiplier))
    assert abs(calibrated_deficit(healthy, calibration)) < 0.03
    assert calibrated_deficit(buggy, calibration) > 0.05  # Fig. 11


def test_unit_relative_check_requires_unit_cycles(device):
    from repro.workloads import fibonacci
    trace, _ = run_program(fibonacci(4))
    fake = np.ones(trace.num_cycles)
    with pytest.raises(ValueError):
        unit_relative_check(fake, fake, trace, em_class="muldiv_final")


def test_compare_to_reference_flags_low_similarity():
    from repro.signal import DampedSineKernel, reconstruct
    from repro.workloads import nop_padded

    program = nop_padded([Instruction("add", rd=5, rs1=8, rs2=9)])
    trace, _ = run_program(program)
    kernel = DampedSineKernel()
    amplitudes = np.ones(trace.num_cycles)
    reference = reconstruct(amplitudes, kernel, 20)
    corrupted = reference.copy()
    corrupted[8 * 20:9 * 20] *= -1.0  # cycle 8 anti-phased
    report = compare_to_reference(reference, corrupted, trace, 20,
                                  threshold=0.5)
    assert report.suspicious
    assert [dev.cycle for dev in report.deviations] == [8]
    assert len(report.implicated_instructions()) == 1
    assert "cycle 8" in str(report.deviations[0])


def test_compare_to_reference_clean_match():
    from repro.signal import DampedSineKernel, reconstruct
    from repro.workloads import fibonacci

    trace, _ = run_program(fibonacci(5))
    signal = reconstruct(np.ones(trace.num_cycles), DampedSineKernel(), 20)
    report = compare_to_reference(signal, signal, trace, 20)
    assert not report.suspicious
    assert report.mean_similarity == pytest.approx(1.0)


def test_compare_to_reference_needs_one_whole_cycle():
    from repro.workloads import fibonacci

    trace, _ = run_program(fibonacci(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError) as raised:
            compare_to_reference(np.ones(5), np.ones(5), trace, 20)
    assert raised.value.exit_code == 16

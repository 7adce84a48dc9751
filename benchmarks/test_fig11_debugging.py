"""Fig. 11 — finding a hardware bug from the EM reference signal.

The paper's case study: a multiplier that silently uses only the lower
8 bits of each operand.  The measured signal's final multiply cycle is
significantly lower than EMSim's reference, localizing the defect with
zero test infrastructure.
"""

from repro.hardware import DE0_CV, DeviceInstance, HardwareDevice
from repro.leakage import (buggy_multiplier, calibrated_deficit,
                           multiplier_stress_program, unit_relative_check)
from repro.signal import estimate_cycle_amplitudes

THRESHOLD = 0.05


def test_fig11_buggy_multiplier_detection(bench, record):
    program = multiplier_stress_program(num_muls=32)

    reference = bench.simulator.simulate(program)

    def check(device):
        measurement = device.capture_ideal(program)
        amplitudes = estimate_cycle_amplitudes(
            measurement.signal, bench.model.config.kernel, bench.spc)
        return unit_relative_check(reference.amplitudes, amplitudes,
                                   reference.trace,
                                   em_class="muldiv_final")

    calibration = check(bench.device)
    healthy = check(HardwareDevice(
        instance=DeviceInstance(board=DE0_CV, instance_id=1)))
    buggy = check(HardwareDevice(alu_bug=buggy_multiplier))
    results = dict(
        calibration=calibration,
        healthy_deficit=calibrated_deficit(healthy, calibration),
        buggy_deficit=calibrated_deficit(buggy, calibration))

    lines = [
        "32 random-operand MULs, multiplier emission vs EMSim reference",
        "(calibrated on a known-good unit):",
        f"  healthy second unit: deficit "
        f"{results['healthy_deficit']:+6.1%}  -> "
        f"{'DEFECTIVE' if results['healthy_deficit'] > THRESHOLD else 'pass'}",
        f"  buggy 8-bit multiplier: deficit "
        f"{results['buggy_deficit']:+6.1%}  -> "
        f"{'DEFECTIVE' if results['buggy_deficit'] > THRESHOLD else 'pass'}",
        "",
        "paper shape: the defective multiplier radiates significantly",
        "less in its result cycle than the simulation reference -> " +
        ("reproduced"
         if results["buggy_deficit"] > THRESHOLD >
         results["healthy_deficit"] else "NOT reproduced"),
    ]
    record("fig11_debugging", "\n".join(lines))

    assert results["healthy_deficit"] < THRESHOLD
    assert results["buggy_deficit"] > THRESHOLD

"""Tests for the synthetic hardware bench (repro.hardware)."""

import numpy as np
import pytest

from repro.core import EMSim, EMSimConfig, EMSimModel
from repro.hardware import (ARTY, BOARDS, DE0_CV, DE1, DeviceInstance,
                            HardwareDevice, ProbePosition, UNIT_NAMES,
                            coupling, stage_couplings)
from repro.hardware.probe import CENTER
from repro.isa import Instruction
from repro.robustness import AcquisitionError
from repro.signal import simulation_accuracy
from repro.workloads import dot_product, nop_padded


def test_units_cover_all_stages():
    units = DE0_CV.build_units()
    assert {unit.stage for unit in units} == {"F", "D", "E", "M", "W"}
    assert {unit.name for unit in units} == set(UNIT_NAMES)


def test_units_deterministic_per_board():
    first = DE0_CV.build_units()
    second = DE0_CV.build_units()
    for a, b in zip(first, second):
        assert np.array_equal(a.bit_weights, b.bit_weights)
        assert a.kernel == b.kernel


def test_boards_differ():
    de0 = DE0_CV.build_units()
    de1 = DE1.build_units()
    assert not np.allclose(de0[0].bit_weights[:5], de1[0].bit_weights[:5])
    assert set(BOARDS) == {"de0-cv", "de1", "arty"}


def test_unit_static_activity_fallbacks():
    unit = DE0_CV.build_units()[0]
    assert unit.static_activity("nop") >= 0
    assert unit.static_activity("muldiv_final") == pytest.approx(
        1.4 * unit.static_activity("muldiv"))
    assert unit.static_activity("load") > 0


def test_coupling_normalized_at_center():
    for unit in DE0_CV.build_units():
        assert coupling(unit, CENTER) == pytest.approx(1.0)


def test_coupling_decreases_with_distance():
    unit = DE0_CV.build_units()[0]
    near = coupling(unit, ProbePosition(0, 0, 5.0))
    far = coupling(unit, ProbePosition(0, 0, 10.0))
    assert far < near


def test_off_center_probe_reweights_units():
    units = DE0_CV.build_units()
    offset = ProbePosition(x=3.0, y=0.0, height=5.0)
    ratios = [coupling(unit, offset) for unit in units]
    assert max(ratios) / min(ratios) > 1.05  # units reweighted unequally
    per_stage = stage_couplings(units, offset)
    assert set(per_stage) == {"F", "D", "E", "M", "W"}


def test_instance_properties():
    base = DeviceInstance(board=DE0_CV, instance_id=0)
    other = DeviceInstance(board=DE0_CV, instance_id=2)
    assert base.clock_ppm == 0.0
    assert base.gain_jitter == 1.0
    assert other.clock_ppm != 0.0
    assert abs(other.clock_ppm) <= 80.0
    assert 0.97 <= other.gain_jitter <= 1.03


def test_device_rejects_conflicting_board_and_instance():
    with pytest.raises(ValueError):
        HardwareDevice(instance=DeviceInstance(board=DE1), board=ARTY)


def test_capture_ideal_deterministic(device):
    program = dot_product(4)
    first = device.capture_ideal(program)
    second = device.capture_ideal(program)
    assert np.array_equal(first.signal, second.signal)
    assert first.num_cycles == second.num_cycles
    assert first.method == "ideal"


def test_capture_reference_approaches_ideal(device):
    program = nop_padded([Instruction("add", rd=5, rs1=8, rs2=9)])
    ideal = device.capture_ideal(program)
    reference = device.capture_reference(program, repetitions=200)
    accuracy = simulation_accuracy(ideal.signal, reference.signal,
                                   device.samples_per_cycle)
    assert accuracy > 0.9


def test_capture_single_is_noisy(device):
    program = dot_product(4)
    ideal = device.capture_ideal(program)
    single = device.capture_single(program, noise_rms=0.1)
    residual = single.signal - ideal.signal
    assert 0.05 < residual.std() < 0.2
    assert single.method == "single"


def test_zero_cycle_ideal_capture_is_empty(device):
    measurement = device.capture_ideal(dot_product(4), max_cycles=0)
    assert measurement.num_cycles == 0
    assert measurement.signal.shape == (0,)


def test_zero_cycle_single_capture_is_empty(device):
    measurement = device.capture_single(dot_product(4), max_cycles=0)
    assert measurement.signal.shape == (0,)


def test_zero_cycle_reference_capture_raises_acquisition_error(device):
    with pytest.raises(AcquisitionError, match="no cycles") as raised:
        device.capture_reference(dot_product(4), repetitions=4,
                                 max_cycles=0)
    assert raised.value.exit_code == 11


def test_zero_cycle_simulation_is_empty_like_the_ideal_capture(device):
    simulator = EMSim(EMSimModel(config=EMSimConfig()),
                      core_config=device.core_config)
    simulated = simulator.simulate(dot_product(4), max_cycles=0)
    assert simulated.signal.shape == (0,)


def test_unknown_capture_method_rejected(device):
    with pytest.raises(ValueError):
        device.measure(dot_product(4), method="quantum")


def test_activity_drives_signal(device):
    """More switching -> more emission: a MUL-heavy probe radiates more
    than an all-NOP stretch."""
    quiet = nop_padded([], before=6, after=6)
    loud = nop_padded([Instruction("mul", rd=5, rs1=8, rs2=9)] * 4,
                      before=6, after=6)
    quiet_rms = float(np.sqrt((device.capture_ideal(quiet).signal ** 2)
                              .mean()))
    loud_rms = float(np.sqrt((device.capture_ideal(loud).signal ** 2)
                             .mean()))
    assert loud_rms > quiet_rms


def test_stall_quiets_the_signal(device):
    """Fig. 5/6: stalled cycles show a clear amplitude drop."""
    program = nop_padded([Instruction("lw", rd=5, rs1=8, imm=0)],
                         before=8, after=8)
    measurement = device.capture_ideal(program)
    trace = measurement.trace
    spc = device.samples_per_cycle
    peaks = np.abs(measurement.signal).reshape(-1, spc).max(axis=1)
    miss_seq = trace.cache_events[0].seq
    stall_cycles = [cycle for cycle in trace.cycles_of(miss_seq, "M")
                    if trace.occupancy["M"][cycle].kind == "stall"]
    nop_cycles = [cycle for cycle in range(trace.num_cycles)
                  if all(trace.occupancy[stage][cycle].em_class() == "nop"
                         for stage in ("F", "D", "E", "M", "W"))
                  and trace.occupancy["F"][cycle].active]
    assert np.mean(peaks[stall_cycles]) < np.mean(peaks[nop_cycles])


def test_manufacturing_instance_same_shape(device):
    """§V-B: instances of one board produce near-identical signals."""
    program = dot_product(4)
    other = HardwareDevice(instance=DeviceInstance(board=DE0_CV,
                                                   instance_id=1))
    base_signal = device.capture_ideal(program).signal
    other_signal = other.capture_ideal(program).signal
    accuracy = simulation_accuracy(base_signal, other_signal,
                                   device.samples_per_cycle)
    assert accuracy > 0.999


def test_board_change_alters_signal(device):
    """§V-C: a different board/CMOS tech changes the waveforms."""
    program = dot_product(4)
    de1_device = HardwareDevice(board=DE1)
    base_signal = device.capture_ideal(program).signal
    de1_signal = de1_device.capture_ideal(program).signal
    accuracy = simulation_accuracy(base_signal, de1_signal,
                                   device.samples_per_cycle)
    assert accuracy < 0.9

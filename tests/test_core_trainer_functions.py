"""Direct tests for the trainer's fitting functions (repro.core.training)."""

import copy

import numpy as np
import pytest

from repro.core import Trainer, fit_beta, fit_kernel, train_emsim
from repro.core.microbench import isolation_probe
from repro.hardware import HardwareDevice, ProbePosition
from repro.signal import DampedSineKernel, reconstruct


def test_fit_kernel_recovers_parameters(rng):
    true_kernel = DampedSineKernel(t0=0.30, theta=3.5)
    amplitudes = rng.uniform(0.3, 1.5, 40)
    signal = reconstruct(amplitudes, true_kernel, 20)
    fitted = fit_kernel(signal, 20,
                        t0_grid=np.linspace(0.2, 0.4, 9),
                        theta_grid=np.linspace(2.0, 5.0, 7))
    assert abs(fitted.t0 - 0.30) < 0.04
    assert abs(fitted.theta - 3.5) < 0.6


def test_fit_kernel_prefers_true_shape_over_neighbors(rng):
    true_kernel = DampedSineKernel(t0=0.25, theta=4.0)
    signal = reconstruct(rng.uniform(0.2, 1.2, 30), true_kernel, 20)
    fitted = fit_kernel(signal, 20, t0_grid=[0.15, 0.25, 0.40],
                        theta_grid=[4.0])
    assert fitted.t0 == 0.25


def _beta_programs():
    return [isolation_probe("add", rs1_value=0xF0F0F0F0),
            isolation_probe("lw", mem_offset=256),
            isolation_probe("mul", rs1_value=0x12345678,
                            rs2_value=0x9ABCDEF0)]


@pytest.mark.parametrize("position", [ProbePosition(2.0, 1.0, 6.0),
                                      ProbePosition(0.0, 0.0, 9.0)])
def test_fit_beta_scales_down_with_distance(position):
    device = HardwareDevice()
    model = train_emsim(device)
    moved = HardwareDevice(probe=position)
    intercept, beta = fit_beta(model, moved, _beta_programs())
    assert np.isfinite(intercept)
    assert set(beta) == {"F", "D", "E", "M", "W"}
    # farther probe -> weaker coupling in the well-excited stages
    for stage in ("F", "D", "E", "W"):
        assert 0.0 < beta[stage] < 1.1, (stage, beta)
    assert np.mean(list(beta.values())) < 1.0


def test_fit_beta_is_identity_at_training_position():
    device = HardwareDevice()
    model = train_emsim(device)
    _, beta = fit_beta(model, device, _beta_programs())
    for stage in ("F", "D", "E", "W"):
        assert abs(beta[stage] - 1.0) < 0.6, (stage, beta)


def test_fit_beta_intercept_belongs_to_its_betas():
    """Predicting with the fitted intercept beats the training one.

    beta is solved jointly with a free intercept; pairing the betas
    with the training-position intercept instead leaves a biased fit.
    """
    device = HardwareDevice()
    model = train_emsim(device)
    moved = HardwareDevice(probe=ProbePosition(2.0, 1.0, 6.0))
    programs = _beta_programs()
    intercept, beta = fit_beta(model, moved, programs)
    trainer = Trainer(device=moved, config=model.config,
                      capture_method="ideal", fit_kernel_parameters=False)
    measurements = [trainer._measure(program, index)
                    for index, program in enumerate(programs)]

    def squared_error(candidate):
        adjusted = copy.copy(model)
        adjusted.intercept = candidate
        adjusted.beta = beta
        total = 0.0
        for measurement in measurements:
            cycles = measurement.trace.num_cycles
            residual = trainer._amplitudes(measurement)[:cycles] - \
                adjusted.predict_cycle_amplitudes(measurement.trace)
            total += float(residual @ residual)
        return total

    assert intercept != model.intercept
    assert squared_error(intercept) < squared_error(model.intercept)

"""Tests for waveform synthesis and amplitude deconvolution."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signal.kernels import DampedSineKernel, RectKernel
from repro.signal.reconstruction import (estimate_cycle_amplitudes,
                                         reconstruct)

from .oracles import reconstruct_at

KERNEL = DampedSineKernel(t0=0.25, theta=4.0)
SPC = 20


def test_single_impulse_reproduces_kernel():
    amplitudes = np.zeros(10)
    amplitudes[0] = 2.0
    signal = reconstruct(amplitudes, KERNEL, SPC)
    expected = 2.0 * KERNEL.sampled(SPC)
    assert np.allclose(signal[:len(expected)], expected)


def test_reconstruction_is_linear():
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, 16)
    b = rng.uniform(0, 1, 16)
    combined = reconstruct(a + 2 * b, KERNEL, SPC)
    separate = reconstruct(a, KERNEL, SPC) + 2 * reconstruct(b, KERNEL, SPC)
    assert np.allclose(combined, separate)


def test_rect_reconstruction_is_piecewise_constant():
    amplitudes = np.array([1.0, 3.0, 2.0])
    signal = reconstruct(amplitudes, RectKernel(), SPC)
    assert np.allclose(signal[:SPC], 1.0)
    assert np.allclose(signal[SPC:2 * SPC], 3.0)
    assert np.allclose(signal[2 * SPC:], 2.0)


@given(st.lists(st.floats(0.0, 5.0), min_size=4, max_size=40))
@settings(max_examples=50, deadline=None)
def test_deconvolution_inverts_reconstruction(amplitudes):
    amplitudes = np.asarray(amplitudes)
    signal = reconstruct(amplitudes, KERNEL, SPC)
    estimated = estimate_cycle_amplitudes(signal, KERNEL, SPC)
    assert np.allclose(estimated, amplitudes, atol=1e-6)


def test_deconvolution_rejects_misaligned_signal():
    import pytest
    with pytest.raises(ValueError):
        estimate_cycle_amplitudes(np.zeros(SPC + 3), KERNEL, SPC)


def test_reconstruct_at_matches_grid():
    """The planned grid synthesis agrees with Eq. 6 evaluated at the
    grid's times by the oracle."""
    rng = np.random.default_rng(1)
    amplitudes = rng.uniform(0, 2, 12)
    grid_signal = reconstruct(amplitudes, KERNEL, SPC)
    times = np.arange(len(grid_signal)) / SPC
    continuous = reconstruct_at(amplitudes, KERNEL, times)
    # reconstruct() truncates the kernel at its support; reconstruct_at
    # evaluates one lag further, so tails differ at the e^-theta*support
    # level
    assert np.allclose(continuous, grid_signal, atol=1e-4)


def test_reconstruct_at_outside_support_is_zero():
    amplitudes = np.ones(4)
    values = reconstruct_at(amplitudes, KERNEL, np.array([-1.0, 50.0]))
    assert np.allclose(values, 0.0)

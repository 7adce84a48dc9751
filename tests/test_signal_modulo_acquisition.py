"""Tests for the modulo operation and the scope model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robustness import AcquisitionError
from repro.signal import (DampedSineKernel, Oscilloscope, ScopeConfig,
                          modular_offsets, modulo_average, reconstruct,
                          simulation_accuracy)
from repro.signal.modulo import offset_bins

from .oracles import on_grid, reconstruct_at, seed_offset_bins

KERNEL = DampedSineKernel()
SPC = 20


def test_modular_offsets_eq1():
    times = np.array([0.0, 1.5, 10.0, 10.25])
    offsets = modular_offsets(times, period=10.0)
    assert np.allclose(offsets, [0.0, 1.5, 0.0, 0.25])


@pytest.mark.parametrize("period, num_bins",
                         [(30.0, 600), (97.0013, 1940), (4.0, 32),
                          (0.37, 7), (113.25, 2265)])
def test_offset_bins_match_the_seed_binning(period, num_bins):
    rng = np.random.default_rng(num_bins)
    # scope grids: 40 repetitions, each jittered, at an asynchronous rate
    rate = num_bins / period * (1 + 1.37e-3)
    count = int(period * rate)
    grid = (rng.uniform(0, 0.4, (40, 1)) + np.arange(count) / rate
            + period * np.arange(40)[:, None])
    multiples = period * np.arange(-3.0, 4.0)
    # tiny negatives: np.mod maps them to ``period`` itself, whose index
    # rounds to ``num_bins`` and must wrap to bin 0
    tiny = -np.logspace(-300, -17, 12)
    assert np.all(modular_offsets(tiny, period) == period)
    edges = np.concatenate([
        -grid[:3].ravel(), multiples, np.nextafter(multiples, -np.inf),
        np.nextafter(multiples, np.inf), [-0.0, 0.0], tiny])
    for times in (grid, grid.ravel(), edges):
        expected = seed_offset_bins(times, period, num_bins)
        bins = offset_bins(times, period, num_bins)
        assert bins.dtype == expected.dtype
        assert bins.shape == expected.shape
        assert np.array_equal(bins, expected)
    assert np.all(offset_bins(tiny, period, num_bins) == 0)


def test_modulo_average_folds_periodic_signal():
    period, bins = 8.0, 64
    rng = np.random.default_rng(0)
    times = np.sort(rng.uniform(0, 20 * period, 40000))
    clean = np.sin(2 * np.pi * times / period)
    noisy = clean + rng.normal(0, 0.3, size=times.shape)
    reference, counts = modulo_average(noisy, times, period, bins)
    grid = (np.arange(bins) / bins) * period
    expected = np.sin(2 * np.pi * grid / period)
    assert counts.sum() == len(times)
    assert np.max(np.abs(reference - expected)) < 0.1
    # given its samples' bins, the fold reads no times
    given = modulo_average(noisy, None, period, bins,
                           bins=offset_bins(times, period, bins))
    assert np.array_equal(given[0], reference)
    assert np.array_equal(given[1], counts)


def test_modulo_average_interpolates_empty_bins():
    # integer sampling: only a few distinct offsets land in bins
    times = np.arange(0, 400, 1.0)
    samples = np.cos(2 * np.pi * times / 4.0)
    reference, counts = modulo_average(samples, times, period=4.0,
                                       num_bins=32)
    assert (counts == 0).any()
    assert np.isfinite(reference).all()


def test_modulo_average_requires_samples():
    with pytest.raises(AcquisitionError):
        modulo_average(np.array([]), np.array([]), 4.0, 8)


def test_scope_capture_shapes_and_quantization():
    scope = Oscilloscope(ScopeConfig(samples_per_cycle=8.0,
                                     noise_rms=0.0, adc_bits=6,
                                     trigger_jitter_cycles=0.0),
                         np.random.default_rng(0))
    times_list, samples_list = scope.capture_repetition_list(
        on_grid(np.sin), 10.0, 1)
    (times,), (samples,) = times_list, samples_list
    assert len(times) == len(samples) == int(10 * 8.0 * (1 + 1.37e-3))
    step = 4.0 / 2 ** 6
    assert np.allclose(np.round(samples / step), samples / step)


def test_scope_noise_statistics():
    scope = Oscilloscope(ScopeConfig(samples_per_cycle=50.0,
                                     noise_rms=0.1, adc_bits=14),
                         np.random.default_rng(1))
    _, (samples,) = scope.capture_repetition_list(
        on_grid(np.zeros_like), 200.0, 1)
    assert 0.08 < samples.std() < 0.12


def test_full_capture_chain_recovers_reference(rng):
    amplitudes = rng.uniform(0.2, 1.5, 30)
    ideal = reconstruct(amplitudes, KERNEL, SPC)
    scope = Oscilloscope(ScopeConfig(samples_per_cycle=7.0,
                                     noise_rms=0.05),
                         np.random.default_rng(2))
    times_list, samples_list = scope.capture_repetition_list(
        on_grid(lambda t: reconstruct_at(amplitudes, KERNEL, t)), 30.0, 300)
    reference, _ = modulo_average(np.concatenate(samples_list),
                                  np.concatenate(times_list), period=30.0,
                                  num_bins=30 * SPC)
    assert simulation_accuracy(ideal, reference, SPC) > 0.95


@given(st.floats(2.0, 50.0), st.integers(8, 128))
@settings(max_examples=30, deadline=None)
def test_modulo_offsets_within_period(period, bins):
    times = np.linspace(0, 1000, 777)
    offsets = modular_offsets(times, period)
    assert np.all(offsets >= 0)
    assert np.all(offsets < period)

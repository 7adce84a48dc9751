"""Tests for accuracy metrics and spectral utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.robustness.errors import AcquisitionError, ConfigurationError
from repro.signal import (DampedSineKernel, cross_correlation,
                          harmonic_energy, normalize_energy, normalized_rmse,
                          per_cycle_similarities, power_spectrum,
                          reconstruct, rms_error, simulation_accuracy,
                          spike_energy)

from .oracles import seed_per_cycle_similarities

SPC = 20
KERNEL = DampedSineKernel()


def test_identical_signals_score_one():
    rng = np.random.default_rng(0)
    signal = reconstruct(rng.uniform(0, 2, 25), KERNEL, SPC)
    assert simulation_accuracy(signal, signal, SPC) == pytest.approx(1.0)
    assert cross_correlation(signal, signal) == pytest.approx(1.0)


def test_scaled_signal_still_perfect_after_normalization():
    rng = np.random.default_rng(1)
    signal = reconstruct(rng.uniform(0, 2, 25), KERNEL, SPC)
    assert simulation_accuracy(signal, 3.0 * signal, SPC) == \
        pytest.approx(1.0)


def test_amplitude_mismatch_penalized():
    """The headline metric must punish per-cycle amplitude errors even
    when the waveform shape is identical (paper Figs. 2/3/5/6)."""
    rng = np.random.default_rng(2)
    amplitudes = rng.uniform(0.5, 2.0, 30)
    wrong = amplitudes.copy()
    wrong[::2] *= 3.0  # distort half the cycles
    good = reconstruct(amplitudes, KERNEL, SPC)
    bad = reconstruct(wrong, KERNEL, SPC)
    accuracy = simulation_accuracy(bad, good, SPC)
    assert accuracy < 0.9
    # shape-only correlation barely notices
    shape_only = np.mean([max(0.0, cross_correlation(b, g)) for b, g in
                          zip(bad.reshape(-1, SPC), good.reshape(-1, SPC))])
    assert shape_only > accuracy


def test_silent_cycles_count_as_match():
    silent = np.zeros(5 * SPC)
    scores = per_cycle_similarities(silent, silent, SPC)
    assert np.all(scores == 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_per_cycle_similarities_match_the_seed_loop(seed):
    rng = np.random.default_rng(seed)
    cycles = int(rng.integers(1, 60))
    amplitudes = rng.uniform(0.2, 2.0, cycles)
    simulated = reconstruct(amplitudes, KERNEL, SPC)
    measured = reconstruct(amplitudes * rng.uniform(0.6, 1.4, cycles),
                           KERNEL, SPC)
    measured += 0.05 * rng.normal(size=measured.size)
    silent = rng.random(cycles) < 0.3
    silent[0] = True
    for signal in (simulated, measured):
        signal.reshape(cycles, SPC)[silent] = 0.0
    # a trailing partial cycle on one side is not scored
    measured = np.concatenate([measured, rng.normal(size=SPC - 1)])
    scores = per_cycle_similarities(simulated, measured, SPC)
    seed_scores = seed_per_cycle_similarities(simulated, measured, SPC)
    assert scores.shape == seed_scores.shape == (cycles,)
    assert np.all(scores[silent] == 1.0)
    np.testing.assert_allclose(scores, seed_scores, rtol=1e-12, atol=0.0)


def test_accuracy_needs_one_whole_cycle():
    short = np.ones(SPC - 1)
    assert per_cycle_similarities(short, short, SPC).shape == (0,)
    with pytest.raises(ConfigurationError) as raised:
        simulation_accuracy(short, np.ones(3 * SPC), SPC)
    assert raised.value.exit_code == 16


def test_anti_phase_clipped_to_zero():
    rng = np.random.default_rng(3)
    signal = reconstruct(rng.uniform(0.5, 2, 20), KERNEL, SPC)
    assert simulation_accuracy(signal, -signal, SPC) == 0.0


def test_cross_correlation_range_and_errors():
    a = np.sin(np.linspace(0, 10, 100))
    b = np.cos(np.linspace(0, 10, 100))
    value = cross_correlation(a, b)
    assert -1.0 <= value <= 1.0
    with pytest.raises(ValueError):
        cross_correlation(a, b[:50])


def test_rmse_and_normalized_rmse():
    a = np.ones(100)
    b = np.zeros(100)
    assert rms_error(a, b) == pytest.approx(1.0)
    assert normalized_rmse(a + 1, a) == pytest.approx(1.0)
    assert normalized_rmse(b, b) == 0.0


@given(st.lists(st.floats(0.1, 3.0), min_size=4, max_size=30))
@settings(max_examples=40, deadline=None)
def test_accuracy_symmetric_and_bounded(amplitudes):
    signal = reconstruct(np.asarray(amplitudes), KERNEL, SPC)
    other = reconstruct(np.asarray(amplitudes[::-1]), KERNEL, SPC)
    forward = simulation_accuracy(signal, other, SPC)
    backward = simulation_accuracy(other, signal, SPC)
    assert forward == pytest.approx(backward)
    assert 0.0 <= forward <= 1.0


def test_power_spectrum_peak_location():
    fs = 100.0
    t = np.arange(4096) / fs
    signal = np.sin(2 * np.pi * 12.5 * t)
    frequencies, power = power_spectrum(signal, fs)
    assert abs(frequencies[np.argmax(power)] - 12.5) < 0.1


def test_spike_energy_detects_alternation():
    fs = 20.0
    t = np.arange(8000) / fs
    carrier = 0.2 * np.sin(2 * np.pi * 4.0 * t)
    alternation = np.sign(np.sin(2 * np.pi * 0.125 * t))
    with_spike = carrier * (1.5 + alternation)
    without = carrier * 1.5
    assert spike_energy(with_spike, fs, 0.125) > \
        10 * spike_energy(without, fs, 0.125)


def test_spike_energy_out_of_band_rejected():
    with pytest.raises(ValueError):
        spike_energy(np.ones(100), 10.0, 20.0)


@given(noise=arrays(float, st.integers(128, 600),
                    elements=st.floats(-10.0, 10.0)),
       sample_rate=st.floats(1.0, 50.0),
       fundamental=st.floats(0.05, 0.7),
       harmonics=st.integers(1, 6),
       bandwidth=st.floats(0.2, 0.6))
@settings(max_examples=60, deadline=None)
def test_harmonic_energy_equals_its_bands(noise, sample_rate, fundamental,
                                          harmonics, bandwidth):
    # every band is wider than a frequency bin, so none is empty
    fundamental *= sample_rate
    times = np.arange(len(noise)) / sample_rate
    signal = noise + np.sin(2 * np.pi * fundamental * times)
    expected = 0.0
    for order in range(1, harmonics + 1):
        if fundamental * order < sample_rate / 2:
            expected += spike_energy(signal, sample_rate,
                                     fundamental * order, bandwidth)
    assert harmonic_energy(signal, sample_rate, fundamental, harmonics,
                           bandwidth) == expected


def test_harmonic_energy_takes_no_spectrum_above_nyquist():
    # a 2-sample Hann window has zero energy: any spectrum would raise
    capture = np.array([1.0, -1.0])
    assert harmonic_energy(capture, 10.0, 5.0) == 0.0
    assert harmonic_energy(capture, 10.0, 7.5, harmonics=4) == 0.0
    with pytest.raises(AcquisitionError):
        harmonic_energy(capture, 10.0, 1.0)

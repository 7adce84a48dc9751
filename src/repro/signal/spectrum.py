"""Frequency-domain utilities for the SAVAT metric (paper §VI-A).

SAVAT alternates two instructions A and B with period ``t_p``, producing a
spectral spike at ``f_p = 1 / t_p``; the energy of that spike measures how
distinguishable A and B are to an attacker.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..robustness.errors import AcquisitionError, ConfigurationError


def power_spectrum(signal: np.ndarray,
                   sample_rate: float) -> Tuple[np.ndarray, np.ndarray]:
    """One-sided power spectral density via the FFT.

    Returns ``(frequencies, power)``; a Hann window reduces leakage from
    the finite capture.
    """
    signal = np.asarray(signal, dtype=float)
    window = np.hanning(len(signal))
    window_energy = float(np.sum(window ** 2))
    if window_energy <= 0.0:
        # hanning(0) is empty and hanning(2) is all zeros
        raise AcquisitionError("capture too short: Hann window has "
                               "zero energy, no spectrum can be formed")
    spectrum = np.fft.rfft((signal - signal.mean()) * window)
    power = (np.abs(spectrum) ** 2) / window_energy
    frequencies = np.fft.rfftfreq(len(signal), d=1.0 / sample_rate)
    return frequencies, power


def _band_energy(spectrum: Tuple[np.ndarray, np.ndarray],
                 target_frequency: float,
                 relative_bandwidth: float) -> float:
    """Spike energy at ``target_frequency`` of a :func:`power_spectrum`."""
    frequencies, power = spectrum
    half_band = target_frequency * relative_bandwidth / 2
    in_band = (frequencies >= target_frequency - half_band) & \
        (frequencies <= target_frequency + half_band)
    if not in_band.any():
        raise ConfigurationError(
            "target frequency outside the captured spectrum")
    flank = ((frequencies >= target_frequency - 4 * half_band) &
             (frequencies < target_frequency - half_band)) | \
        ((frequencies > target_frequency + half_band) &
         (frequencies <= target_frequency + 4 * half_band))
    noise_floor = float(np.median(power[flank])) if flank.any() else 0.0
    excess = power[in_band] - noise_floor
    return float(np.clip(excess, 0.0, None).sum())


def spike_energy(signal: np.ndarray, sample_rate: float,
                 target_frequency: float,
                 relative_bandwidth: float = 0.15) -> float:
    """Energy of the spectral spike at ``target_frequency``.

    Integrates the PSD inside a band of ``relative_bandwidth`` around the
    target, minus the local noise floor estimated from the flanking bands —
    the "area under the curve" of the paper's SAVAT description.
    """
    return _band_energy(power_spectrum(signal, sample_rate),
                        target_frequency, relative_bandwidth)


def harmonic_energy(signal: np.ndarray, sample_rate: float,
                    fundamental: float, harmonics: int = 3,
                    relative_bandwidth: float = 0.15) -> float:
    """Spike energy summed over the fundamental and its harmonics.

    Harmonics at or above Nyquist are left out.  The spectrum is taken
    once, when the first band is in range, and every band is integrated
    from it, so the sum equals :func:`spike_energy` per harmonic.
    """
    total = 0.0
    spectrum = None
    for order in range(1, harmonics + 1):
        frequency = fundamental * order
        if frequency >= sample_rate / 2:
            break
        if spectrum is None:
            spectrum = power_spectrum(signal, sample_rate)
        total += _band_energy(spectrum, frequency, relative_bandwidth)
    return total

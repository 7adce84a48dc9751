"""Accuracy metrics for comparing simulated and measured signals.

The paper's headline metric (§V-A "Metric"): normalize both signals to the
same average, split into clock cycles, compute the normalized
cross-correlation of each cycle pair, and report the average across cycles —
"EMSim has about 94.1% accuracy in simulating side-channel signals".
"""

from __future__ import annotations

import numpy as np

from ..robustness.errors import ConfigurationError

_EPSILON = 1e-12


def normalize_energy(signal: np.ndarray) -> np.ndarray:
    """Scale a signal to unit RMS (zero signals are returned unchanged)."""
    signal = np.asarray(signal, dtype=float)
    rms = np.sqrt(np.mean(signal ** 2))
    return signal if rms < _EPSILON else signal / rms


def cross_correlation(first: np.ndarray, second: np.ndarray) -> float:
    """Zero-lag normalized cross-correlation of two equal-length signals.

    Returns a value in [-1, 1]; two near-silent segments count as perfectly
    matched (1.0), since both carry no information.
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape != second.shape:
        raise ValueError("signals must have equal length")
    energy_first = float(np.dot(first, first))
    energy_second = float(np.dot(second, second))
    if energy_first < _EPSILON and energy_second < _EPSILON:
        return 1.0
    if energy_first < _EPSILON or energy_second < _EPSILON:
        return 0.0
    return float(np.dot(first, second) /
                 np.sqrt(energy_first * energy_second))


def per_cycle_similarities(simulated: np.ndarray, measured: np.ndarray,
                           samples_per_cycle: int) -> np.ndarray:
    """Amplitude-sensitive per-cycle waveform similarity.

    Both signals are first normalized to unit overall RMS (the paper's
    "normalize both signals to have similar average"); each cycle pair is
    then scored with the energy-normalized cross-correlation

        sim = 2 <s, r> / (<s, s> + <r, r>)

    which equals 1 only when the segments match in shape *and* amplitude.
    This is the reproduction's reading of the paper's per-cycle
    cross-correlation accuracy: the paper's degradation figures (2, 3, 5,
    6) all show *amplitude* mismatches, so the metric must penalize them.

    Only whole cycles of the shorter signal are scored (a trailing
    partial cycle is ignored, and a signal shorter than one cycle gives
    an empty array); two silent cycles score exactly 1.  All cycles are
    scored at once: the signals are reshaped to (cycles, samples) and
    each inner product is one ``einsum``.
    """
    simulated = normalize_energy(simulated)
    measured = normalize_energy(measured)
    num_cycles = min(len(simulated), len(measured)) // samples_per_cycle
    length = num_cycles * samples_per_cycle
    sim = simulated[:length].reshape(num_cycles, samples_per_cycle)
    meas = measured[:length].reshape(num_cycles, samples_per_cycle)
    energy = np.einsum("cs,cs->c", sim, sim) + \
        np.einsum("cs,cs->c", meas, meas)
    silent = energy < _EPSILON
    return np.divide(2.0 * np.einsum("cs,cs->c", sim, meas), energy,
                     out=np.ones(num_cycles), where=~silent)


def simulation_accuracy(simulated: np.ndarray, measured: np.ndarray,
                        samples_per_cycle: int) -> float:
    """The paper's accuracy metric: mean per-cycle waveform similarity.

    Negative per-cycle scores (anti-matched waveforms) are clipped at
    zero before averaging so a destructive mismatch cannot offset matched
    cycles.  Raises :class:`~repro.robustness.errors.ConfigurationError`
    when the signals hold less than one whole cycle: an empty mean would
    be NaN and would poison any average over groups.
    """
    scores = per_cycle_similarities(simulated, measured, samples_per_cycle)
    if scores.size == 0:
        raise ConfigurationError(
            f"accuracy needs at least one whole cycle of "
            f"{samples_per_cycle} samples; the signals hold "
            f"{len(simulated)} and {len(measured)}")
    return float(np.clip(scores, 0.0, 1.0).mean())


def rms_error(simulated: np.ndarray, measured: np.ndarray) -> float:
    """Root-mean-square error between two signals."""
    simulated = np.asarray(simulated, dtype=float)
    measured = np.asarray(measured, dtype=float)
    length = min(len(simulated), len(measured))
    return float(np.sqrt(np.mean(
        (simulated[:length] - measured[:length]) ** 2)))


def normalized_rmse(simulated: np.ndarray, measured: np.ndarray) -> float:
    """RMSE normalized by the measured signal's RMS (lower is better)."""
    measured = np.asarray(measured, dtype=float)
    rms = np.sqrt(np.mean(measured ** 2))
    if rms < _EPSILON:
        return 0.0 if rms_error(simulated, measured) < _EPSILON else \
            float("inf")
    return rms_error(simulated, measured) / float(rms)

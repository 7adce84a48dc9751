"""Accuracy metrics for comparing simulated and measured signals.

The paper's headline metric (§V-A "Metric"): normalize both signals to the
same average, split into clock cycles, compute the normalized
cross-correlation of each cycle pair, and report the average across cycles —
"EMSim has about 94.1% accuracy in simulating side-channel signals".
"""

from __future__ import annotations

import numpy as np

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
    """
    simulated = normalize_energy(simulated)
    measured = normalize_energy(measured)
    length = min(len(simulated), len(measured))
    num_cycles = length // samples_per_cycle
    scores = np.empty(num_cycles)
    for cycle in range(num_cycles):
        start = cycle * samples_per_cycle
        stop = start + samples_per_cycle
        sim_seg = simulated[start:stop]
        meas_seg = measured[start:stop]
        energy = float(np.dot(sim_seg, sim_seg) +
                       np.dot(meas_seg, meas_seg))
        if energy < _EPSILON:
            scores[cycle] = 1.0  # two silent cycles match perfectly
            continue
        scores[cycle] = 2.0 * float(np.dot(sim_seg, meas_seg)) / energy
    return scores


def simulation_accuracy(simulated: np.ndarray, measured: np.ndarray,
                        samples_per_cycle: int) -> float:
    """The paper's accuracy metric: mean per-cycle waveform similarity.

    Negative per-cycle scores (anti-matched waveforms) are clipped at
    zero before averaging so a destructive mismatch cannot offset matched
    cycles.
    """
    scores = per_cycle_similarities(simulated, measured, samples_per_cycle)
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

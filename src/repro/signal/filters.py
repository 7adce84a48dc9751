"""Simple smoothing filters applied to reference signals (paper §II-B)."""

from __future__ import annotations

import numpy as np


def moving_average(signal: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge-aware normalization."""
    if window < 1:
        raise ValueError("window must be >= 1")
    signal = np.asarray(signal, dtype=float)
    kernel = np.ones(window)
    # a smoothing filter, not Eq. 6 synthesis
    smoothed = np.convolve(signal, kernel, mode="same")
    # the same window over ones: edge-aware normalization
    norm = np.convolve(np.ones_like(signal), kernel, mode="same")
    return smoothed / norm


def gaussian_smooth(signal: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing with standard deviation ``sigma`` samples."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    signal = np.asarray(signal, dtype=float)
    radius = max(1, int(np.ceil(3 * sigma)))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    # repro: allow[N202] the kernel contains exp(0) = 1 at offset 0, so
    # its sum is always >= 1; the normalization cannot divide by zero.
    kernel /= kernel.sum()
    padded = np.pad(signal, radius, mode="edge")
    return np.convolve(padded, kernel, mode="valid")

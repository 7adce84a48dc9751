"""The "modulo operation" reference-signal extraction (paper §II-B, Eq. 1).

A sequence executing in ``noc`` clock cycles is captured many times; each
raw sample at absolute time ``T_m`` is mapped to its *modular offset*
``delta_m = mod(T_m, T_s)`` with ``T_s = noc * T_clk``, and samples sharing
an offset bin are averaged.  This removes additive noise, trigger
misalignment and under-sampling artifacts, producing the clean per-cycle
reference waveform that model training runs on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def modular_offsets(sample_times: np.ndarray,
                    period: float) -> np.ndarray:
    """Eq. 1: ``delta_m = mod(T_m, T_s)`` for each sampling time."""
    return np.mod(np.asarray(sample_times, dtype=float), period)


_SAFE_PERIODS = (2.0 ** -900, 2.0 ** 900)
"""Periods whose multiples below ``2**53`` :func:`_two_product_error`
splits exactly (no overflow in the split, no underflow in the error)."""


def offset_bins(sample_times: np.ndarray, period: float,
                num_bins: int) -> np.ndarray:
    """Each sample's offset bin on a uniform ``num_bins`` grid.

    ``round(offset / period * num_bins)`` of the Eq. 1 offset, scaled and
    rounded in place.  Nearest-bin assignment keeps each bin's average
    centered on its grid point (floor would introduce a half-bin phase
    lag).  The offsets lie in ``[0, period]``, so the rounded index lies
    in ``[0, num_bins]``, and only ``num_bins`` wraps to bin 0.

    A (repetitions, samples) time matrix takes its offsets from
    :func:`_row_offsets`, which equals ``np.mod`` bit for bit at a
    fraction of its cost; any other shape takes ``np.mod``.
    """
    times = np.asarray(sample_times, dtype=float)
    if times.ndim == 2 and times.size and _SAFE_PERIODS[0] < period < \
            _SAFE_PERIODS[1]:
        scaled = _row_offsets(times, float(period))
    else:
        scaled = modular_offsets(times, period)
    scaled /= period
    scaled *= num_bins
    bins = np.round(scaled, out=scaled).astype(int)
    bins[bins == num_bins] = 0
    return bins


def _two_product_error(multiples: np.ndarray, period: float,
                       products: np.ndarray) -> np.ndarray:
    """``multiples * period - products`` exactly, for ``products`` the
    rounded ``multiples * period`` (Dekker's TwoProduct: both factors
    split into 26-bit halves whose partial products are exact)."""
    def split(value):
        scaled = 134217729.0 * value        # 2^27 + 1
        high = scaled - (scaled - value)
        return high, value - high

    m_high, m_low = split(multiples)
    p_high, p_low = split(period)
    return ((m_high * p_high - products) + m_high * p_low +
            m_low * p_high) + m_low * p_low


def _row_offsets(times: np.ndarray, period: float) -> np.ndarray:
    """Eq. 1 offsets of a time matrix, bit for bit those of ``np.mod``.

    For ``t >= 0`` and ``period > 0``, ``np.mod`` returns the exact
    ``t - q * period`` with ``q = floor(t / period)``, which is
    representable.  Each row takes one multiple ``q = floor(earliest /
    period)`` of its earliest time, and ``q * period = high + low``
    exactly, with ``high`` the rounded product and ``low`` the error
    Dekker's TwoProduct recovers.  Every time ``t`` of the row is at
    least ``high / 2``, so where ``t <= 2 * high`` Sterbenz's lemma
    makes ``t - high`` exact and ``(t - high) - low`` rounds the exact
    ``t - q * period``.  When that lies in ``[0, period)``, ``q`` is
    the time's own multiple and the result is ``np.mod``'s, unrounded.
    The computed value lies in ``[0, period)`` exactly when the exact
    one does: rounding is monotonic, and a nonzero ``t - q * period``,
    a multiple of the finer of ``t``'s and ``period``'s last places,
    never rounds to zero.  A time past ``2 * high`` computes at least
    ``high - |low| > period`` when ``q >= 2``, so it lands outside too.

    Every time outside ``[0, period)`` takes ``np.mod``: a scope row's
    last samples, which its trigger jitter pushes past one period, and
    times below their row's multiple.  So do whole rows whose multiple
    is below 2 (negative times, the first two repetitions) or is not
    an exact integer below ``2**53`` (huge magnitudes).
    """
    multiples = np.floor(times.min(axis=1) / period)
    high = multiples * period
    low = _two_product_error(multiples, period, high)
    offsets = times - high[:, None]
    offsets -= low[:, None]
    outside = (offsets >= period) | (offsets < 0.0)
    outside[~((multiples >= 2.0) & (multiples < 2.0 ** 53))] = True
    index = np.flatnonzero(outside)
    if index.size:
        offsets.flat[index] = np.mod(times.flat[index], period)
    return offsets


def modulo_average(samples: np.ndarray, sample_times: Optional[np.ndarray],
                   period: float, num_bins: int,
                   bins: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Fold samples onto one period and average per offset bin.

    Returns ``(reference, counts)``: the averaged waveform on a uniform
    ``num_bins`` grid over one period, and how many raw samples landed in
    each bin.  Bins that received no samples are filled by linear
    interpolation from their neighbours.  ``bins`` (each sample's
    :func:`offset_bins`) may be passed when the caller already has them;
    ``sample_times`` is then not read.
    """
    samples = np.asarray(samples, dtype=float)
    if bins is None:
        bins = offset_bins(sample_times, period, num_bins)
    sums = np.bincount(bins, weights=samples, minlength=num_bins)
    counts = np.bincount(bins, minlength=num_bins)
    reference = np.zeros(num_bins)
    filled = counts > 0
    reference[filled] = sums[filled] / counts[filled]
    if not filled.all():
        if not filled.any():
            # imported here, not at module top: robustness.health
            # imports this module, so a top-level errors import would
            # be a hard import cycle.
            from ..robustness.errors import AcquisitionError
            raise AcquisitionError("no samples fell into any bin")
        grid = np.arange(num_bins)
        reference[~filled] = np.interp(grid[~filled], grid[filled],
                                       reference[filled], period=num_bins)
    return reference, counts

"""Capture quality assessment and health gating.

Before a capture is allowed into model training it is scored on three
bench-observable statistics:

* **clipping ratio** — fraction of raw samples pinned to the ADC rails
  (gain surges, probe repositioning accidents);
* **SNR** — per-sample signal-to-residual ratio against the folded
  reference (burst interference, dead probes);
* **modulo-alignment residual** — how well the folded repetitions agree
  within offset bins (Eq. 1 consistency; clock-jitter spikes and trigger
  walk destroy it even when the SNR looks fine).

:func:`assess_capture` computes a :class:`CaptureQuality` from the raw
repetition stream; :class:`HealthPolicy` holds the thresholds and either
lists the violations or raises a typed
:class:`~repro.robustness.errors.CaptureQualityError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..signal.acquisition import Rows
from ..signal.modulo import modulo_average, offset_bins
from .errors import CaptureQualityError

_EPS = 1e-12

__all__ = ["CaptureQuality", "HealthPolicy", "RepetitionScreen",
           "assess_capture", "clipping_ratio", "kept_samples",
           "railed_mask", "screen_repetitions"]


def railed_mask(samples: np.ndarray, adc_range: float,
                adc_bits: int) -> np.ndarray:
    """Which samples sit at (or beyond) the ADC rails, elementwise."""
    step = adc_range / (2 ** adc_bits)
    low = -adc_range / 2.0
    high = adc_range / 2.0 - step
    return (samples <= low + step / 2) | (samples >= high - step / 2)


def clipping_ratio(samples: np.ndarray, adc_range: float,
                   adc_bits: int) -> float:
    """Fraction of samples at (or beyond) the ADC rails."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return 0.0
    return float(np.mean(railed_mask(samples, adc_range, adc_bits)))


def kept_samples(rows: Rows, keep: np.ndarray) -> np.ndarray:
    """The kept repetitions' rows, concatenated in order, as one 1-D array.

    Rows of one (repetitions, samples) array come back as a view of it
    when every repetition is kept, else as one boolean-indexed copy;
    ragged rows are concatenated.
    """
    if isinstance(rows, np.ndarray):
        return (rows if keep.all() else rows[keep]).ravel()
    return np.concatenate([rows[index] for index in np.flatnonzero(keep)])


@dataclass
class CaptureQuality:
    """Bench-observable quality statistics of one capture.

    ``lost_repetitions`` counts traces the scope never delivered
    (trigger loss, brown-outs); ``screened_repetitions`` counts delivered
    traces the per-repetition screen rejected as corrupt; the remaining
    ``clean_repetitions`` are what the folded reference is built from.
    """

    clipping_ratio: float
    snr_db: float
    alignment_residual: float     # within-bin residual RMS / signal RMS
    lost_repetitions: int = 0
    screened_repetitions: int = 0
    total_repetitions: int = 0
    num_samples: int = 0

    @property
    def clean_repetitions(self) -> int:
        """Repetitions the reference was folded from: the requested ones
        neither lost nor screened out."""
        return max(0, self.total_repetitions - self.lost_repetitions -
                   self.screened_repetitions)

    def summary(self) -> str:
        """One-line report of the statistics and repetition counts."""
        return (f"clip={self.clipping_ratio:.1%} snr={self.snr_db:.1f}dB "
                f"align={self.alignment_residual:.3f} "
                f"clean={self.clean_repetitions}/{self.total_repetitions} "
                f"(lost {self.lost_repetitions}, screened "
                f"{self.screened_repetitions})")


@dataclass(frozen=True)
class HealthPolicy:
    """Acceptance thresholds for a capture (the health gate).

    The pooled statistics are computed *after* per-repetition screening,
    so the gate checks the reference the fit would actually consume.
    ``min_clean_repetitions`` is the knob the escalation ladder pulls on:
    doubling the repetition budget roughly doubles the clean survivors,
    so a rejected capture becomes acceptable instead of looping forever.
    """

    max_clipping_ratio: float = 0.02
    min_snr_db: float = 6.0
    max_alignment_residual: float = 0.45
    min_clean_repetitions: int = 6
    min_samples: int = 32

    def violations(self, quality: CaptureQuality) -> List[str]:
        """Human-readable threshold violations (empty = healthy)."""
        found = []
        if quality.num_samples < self.min_samples:
            found.append(f"only {quality.num_samples} samples "
                         f"(min {self.min_samples})")
        if quality.clipping_ratio > self.max_clipping_ratio:
            found.append(f"clipping ratio {quality.clipping_ratio:.1%} "
                         f"> {self.max_clipping_ratio:.1%}")
        if quality.snr_db < self.min_snr_db:
            found.append(f"SNR {quality.snr_db:.1f} dB "
                         f"< {self.min_snr_db:.1f} dB floor")
        if quality.alignment_residual > self.max_alignment_residual:
            found.append(
                f"modulo-alignment residual {quality.alignment_residual:.3f}"
                f" > {self.max_alignment_residual:.3f}")
        if quality.total_repetitions > 0 and \
                quality.clean_repetitions < self.min_clean_repetitions:
            found.append(f"only {quality.clean_repetitions} clean "
                         f"repetitions of {quality.total_repetitions} "
                         f"(min {self.min_clean_repetitions})")
        return found

    def check(self, quality: CaptureQuality,
              context: str = "capture") -> None:
        """Raise :class:`CaptureQualityError` if the capture is unhealthy."""
        violations = self.violations(quality)
        if violations:
            raise CaptureQualityError(
                f"{context} failed health gate: {'; '.join(violations)}",
                violations=violations)


@dataclass
class RepetitionScreen:
    """Result of per-repetition screening of one capture run.

    ``reference`` is the screen's fold when it is the fold of exactly
    the kept repetitions (stage B ran and rejected none), else ``None``;
    ``squared_residuals`` then holds every delivered sample's squared
    residual against it.  ``bins`` holds every delivered repetition's
    offset bins when stage B ran, else ``None``, and ``railed`` marks
    every delivered sample at an ADC rail.  Each holds one row per
    delivered repetition, in the form the screen was given (rows of one
    array, or a list when the repetitions are ragged), so the caller
    folds, bins and scores the kept set without recomputing any of them
    (see :func:`kept_samples`).
    """

    keep: np.ndarray                  # boolean mask over delivered reps
    reasons: List[str]                # one line per rejected repetition
    reference: Optional[np.ndarray] = None
    bins: Optional[Rows] = None
    squared_residuals: Optional[Rows] = None
    railed: Optional[Rows] = None

    @property
    def rejected(self) -> int:
        """How many delivered repetitions the screen rejected."""
        return int((~self.keep).sum())


def screen_repetitions(times_list: Rows, samples_list: Rows, period: float,
                       num_bins: int, adc_range: float, adc_bits: int,
                       max_clipping_ratio: float = 0.02,
                       energy_tolerance: float = 0.5,
                       residual_factor: float = 3.0) -> RepetitionScreen:
    """Reject individually corrupted repetitions before folding.

    What a careful bench operator does with a thousand-trace campaign:
    throw away the traces that clipped, the ones whose energy is wildly
    off the run median (gain surges, strong drift, dead probe), and —
    after a provisional fold of the survivors — the ones that disagree
    with the folded reference far more than their peers (clock-jitter
    spikes, burst interference).  Retrying a rejected *run* with a larger
    repetition budget therefore converges: the clean subset grows even if
    the corruption rate stays constant.  Every delivered repetition is
    binned in one call (ragged ones concatenated, then split by length,
    which is exact: binning is elementwise); the provisional fold and
    the residuals read those bins.  The provisional fold, the bins, the
    squared residuals and the railed mask come back on the result for
    the caller to reuse (see :class:`RepetitionScreen`).

    Repetitions given as one (repetitions, samples) array, as
    :meth:`~repro.signal.acquisition.Oscilloscope.capture_repetition_list`
    delivers equal-length captures, are screened with row-wise
    reductions, and the provisional fold reads views of the rows when
    stage A rejects none.  numpy reduces each row of a 2-D array with
    the same pairwise summation it applies to the equivalent 1-D array,
    so every statistic is bit-identical to the per-repetition loop that
    screens a list.
    """
    count = len(samples_list)
    keep = np.ones(count, dtype=bool)
    reasons: List[str] = []
    if count == 0:
        return RepetitionScreen(keep=keep, reasons=reasons)
    matrix = isinstance(samples_list, np.ndarray)

    # stage A: per-trace amplitude statistics
    if matrix:
        rms = np.sqrt(np.mean(np.square(samples_list), axis=1)) + _EPS
        railed = railed_mask(samples_list, adc_range, adc_bits)
        clip_ratios = np.mean(railed, axis=1)
    else:
        rms = np.array([float(np.sqrt(np.mean(np.square(s))) + _EPS)
                        for s in samples_list])
        railed = [railed_mask(s, adc_range, adc_bits) for s in samples_list]
        clip_ratios = np.array([float(np.mean(r)) for r in railed])
    median_rms = float(np.median(rms))
    for index in range(count):
        clip = float(clip_ratios[index])
        if clip > max_clipping_ratio:
            keep[index] = False
            reasons.append(f"rep {index}: clipped ({clip:.1%})")
            continue
        if median_rms > _EPS and \
                abs(rms[index] / median_rms - 1.0) > energy_tolerance:
            keep[index] = False
            reasons.append(f"rep {index}: energy {rms[index]:.3f} vs "
                           f"median {median_rms:.3f}")

    # stage B: agreement with the provisional fold of the survivors
    survivors = int(keep.sum())
    reference = bins = squared = None
    if survivors >= 3:
        # one binning pass: the fold reads the survivors' bins, in the
        # order concatenation would give
        if matrix:
            bins = offset_bins(times_list, period, num_bins)
        else:
            bins = np.split(
                offset_bins(np.concatenate(times_list), period, num_bins),
                np.cumsum([len(s) for s in samples_list])[:-1])
        reference, _ = modulo_average(kept_samples(samples_list, keep),
                                      None, period=period,
                                      num_bins=num_bins,
                                      bins=kept_samples(bins, keep))
        if matrix:
            # (samples - reference[bins])^2, in the gathered array
            squared = reference[bins]
            np.subtract(samples_list, squared, out=squared)
            np.square(squared, out=squared)
            all_residuals = np.sqrt(np.mean(squared, axis=1))
        else:
            squared = [np.square(s - reference[b])
                       for s, b in zip(samples_list, bins)]
            all_residuals = np.array([float(np.sqrt(np.mean(s)))
                                      for s in squared])
        residuals = np.where(keep, all_residuals, np.nan)
        median_residual = float(np.nanmedian(residuals))
        if median_residual > _EPS:
            for index in range(count):
                if not keep[index]:
                    continue
                if residuals[index] > residual_factor * median_residual:
                    keep[index] = False
                    reasons.append(
                        f"rep {index}: fold residual "
                        f"{residuals[index]:.3f} vs median "
                        f"{median_residual:.3f}")

    # the provisional fold covers exactly the kept set unless stage B
    # rejected one of its survivors
    if keep.sum() < survivors:
        reference = squared = None
    return RepetitionScreen(keep=keep, reasons=reasons, reference=reference,
                            bins=bins, squared_residuals=squared,
                            railed=railed)


def assess_capture(samples: np.ndarray, times: Optional[np.ndarray],
                   period: float, num_bins: int, adc_range: float,
                   adc_bits: int,
                   lost_repetitions: int = 0,
                   screened_repetitions: int = 0,
                   total_repetitions: int = 0,
                   reference: Optional[np.ndarray] = None,
                   bins: Optional[np.ndarray] = None,
                   squared_residuals: Optional[np.ndarray] = None,
                   railed: Optional[np.ndarray] = None) -> CaptureQuality:
    """Score one raw repetition stream against its folded reference.

    ``reference``, ``bins`` (each sample's offset bin),
    ``squared_residuals`` (each sample's squared residual against
    ``reference``, which must then be given too) and ``railed`` (each
    sample's ADC-rail flag) may be passed when the caller already has
    them, as :class:`RepetitionScreen` does (avoids folding, binning or
    scoring twice); otherwise they are recomputed here, and only then
    is ``times`` read.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return CaptureQuality(clipping_ratio=0.0, snr_db=-np.inf,
                              alignment_residual=np.inf,
                              lost_repetitions=lost_repetitions,
                              screened_repetitions=screened_repetitions,
                              total_repetitions=total_repetitions,
                              num_samples=0)
    if squared_residuals is None:
        if bins is None:
            bins = offset_bins(times, period, num_bins)
        if reference is None:
            reference, _ = modulo_average(samples, None, period=period,
                                          num_bins=num_bins, bins=bins)
        # residual of every raw sample against its own offset bin's
        # average: AWGN, bursts, drift, and misalignment all land here
        squared_residuals = np.square(samples - reference[bins])
    if railed is None:
        railed = railed_mask(samples, adc_range, adc_bits)
    signal_rms = float(np.sqrt(np.mean(
        (reference - reference.mean()) ** 2)))
    residual_rms = float(np.sqrt(np.mean(squared_residuals)))
    snr = (signal_rms + _EPS) / (residual_rms + _EPS)
    return CaptureQuality(
        clipping_ratio=float(np.mean(railed)),
        snr_db=float(20.0 * np.log10(snr)),
        alignment_residual=residual_rms / (signal_rms + _EPS),
        lost_repetitions=lost_repetitions,
        screened_repetitions=screened_repetitions,
        total_repetitions=total_repetitions,
        num_samples=int(samples.size))

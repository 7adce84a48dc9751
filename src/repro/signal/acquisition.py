"""Signal-acquisition front end: the oscilloscope model.

Stands in for the paper's Keysight DSOS804A (10 GSa/s) capturing the probe
output.  Models the practical imperfections the modulo operation has to
undo: a sampling grid asynchronous to the device clock, random trigger
offsets per repetition, additive white Gaussian noise, and finite ADC
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from ..robustness.errors import AcquisitionError
from ..robustness.faults import FaultInjector

Rows = Union[np.ndarray, List[np.ndarray]]
"""Per-repetition traces: the rows of one (repetitions, samples) array,
or a list of 1-D arrays when their lengths differ."""


@dataclass(frozen=True)
class ScopeConfig:
    """Acquisition parameters, normalized to the device clock.

    ``samples_per_cycle`` plays the role of f_s / f_clk (e.g. the paper's
    10 GSa/s at 50 MHz is 200 samples per cycle); a non-integer value (via
    ``rate_offset``) makes the grid asynchronous so that folded repetitions
    interleave, exactly the situation the modulo operation exploits.
    """

    samples_per_cycle: float = 20.0
    rate_offset: float = 1.37e-3     # fractional sample-rate mismatch
    noise_rms: float = 0.05          # AWGN std-dev (signal units)
    adc_bits: int = 10
    adc_range: float = 4.0           # full scale, signal units
    trigger_jitter_cycles: float = 0.4

    @property
    def effective_rate(self) -> float:
        """Actual samples per cycle including the rate mismatch."""
        return self.samples_per_cycle * (1.0 + self.rate_offset)


@dataclass
class RepetitionStats:
    """Delivery accounting for one repetition capture run."""

    requested: int = 0
    lost: int = 0

    @property
    def delivered(self) -> int:
        """Repetitions that actually arrived (requested minus lost)."""
        return self.requested - self.lost


class Oscilloscope:
    """Samples a continuous signal on the scope's time grid.

    The signal is a grid evaluator ``y(starts, count, step)``: it samples
    ``t = starts[r] + k * step`` (t in device clock cycles) for
    ``k < count`` and returns the repetitions concatenated in order, as
    :meth:`~repro.hardware.emitter.HardwareEmitter.continuous` does.  The
    returned array is the scope's to keep: the noise is added to it in
    place.

    ``injector`` optionally threads a seeded
    :class:`~repro.robustness.faults.FaultInjector` into the capture
    path: capture-killing faults lose the repetition, signal faults
    corrupt the raw samples before quantization (so saturation rails,
    exactly as on a real ADC).
    """

    def __init__(self, config: ScopeConfig,
                 rng: np.random.Generator,
                 injector: Optional[FaultInjector] = None):
        self.config = config
        self.rng = rng
        self.injector = injector
        self.last_repetition_stats = RepetitionStats()

    def _quantize(self, samples: np.ndarray) -> np.ndarray:
        """ADC codes ``round(clip(x) / step) * step``, in place."""
        config = self.config
        step = config.adc_range / (2 ** config.adc_bits)
        np.clip(samples, -config.adc_range / 2,
                config.adc_range / 2 - step, out=samples)
        samples /= step
        np.round(samples, out=samples)
        samples *= step
        return samples

    def capture_repetition_list(self,
                                continuous: Callable[[np.ndarray, int,
                                                      float], np.ndarray],
                                duration_cycles: float,
                                repetitions: int) -> Tuple[Rows, Rows]:
        """Capture back-to-back repetitions as *separate* traces.

        This is the paper's "executed several times (1000 times in our
        measurements)" collection loop.  Returns ``(times, samples)`` of
        the delivered traces, one row per repetition, each already
        shifted onto the common absolute time axis; repetitions lost to
        trigger/brown-out faults are recorded in
        ``last_repetition_stats`` instead of raising, so the caller
        decides how many losses are tolerable.  When the delivered rows
        have equal lengths (every capture without dropped samples) both
        are (repetitions, samples) arrays, whose rows index, iterate and
        count like list entries; only ragged, corrupted captures come
        back as lists of 1-D arrays.

        The RNG stream is consumed per repetition, in order (trigger
        gating, jitter, noise, corruption draws), and every delivered
        repetition's standard-normal noise is drawn straight into its
        row of one (repetitions, samples) matrix; then ``y`` is
        evaluated **once**, on every delivered repetition's grid (its
        jitter, the sample count, one sample period), as one more such
        matrix.  The noise is scaled and added to it in one pass each,
        corruption (if any) is applied row by row, and the rows are
        quantized together, in place.  ``rng.normal(0, sigma)`` draws
        ``0.0 + sigma * z`` from the same ``z``, so the samples carry the
        bits of a per-repetition draw-and-add loop; only a ``-0.0`` value
        of ``y`` meeting a ``-0.0`` noise value keeps its sign here.
        """
        config = self.config
        count = int(duration_cycles * config.effective_rate)
        delivered = []
        jitters = []
        noise = np.empty((repetitions, count))
        recipes = []
        lost = 0
        for repetition in range(repetitions):
            if self.injector is not None:
                try:
                    self.injector.begin_capture()
                except AcquisitionError:
                    lost += 1
                    continue
            jitters.append(self.rng.uniform(0, config.trigger_jitter_cycles))
            self.rng.standard_normal(out=noise[len(delivered)])
            delivered.append(repetition)
            if self.injector is not None:
                recipes.append(self.injector.draw_corruption(count))
        self.last_repetition_stats = RepetitionStats(requested=repetitions,
                                                     lost=lost)
        if not delivered:
            return np.empty((0, count)), np.empty((0, count))
        jitters = np.array(jitters)
        samples = continuous(jitters, count, 1.0 / config.effective_rate) \
            .reshape(len(jitters), count)
        noise = noise[:len(delivered)]
        noise *= config.noise_rms
        samples += noise
        # the noise matrix, added, becomes the times matrix
        times = np.add(jitters[:, None],
                       np.arange(count) / config.effective_rate, out=noise)
        shifts = np.array(delivered, dtype=float) * duration_cycles
        if recipes:
            times, samples = zip(*(
                self.injector.apply_corruption(recipe, row_times, row)
                for recipe, row_times, row in zip(recipes, times, samples)))
            if len({len(row) for row in samples}) > 1:
                return ([row + shift for row, shift in zip(times, shifts)],
                        [self._quantize(row) for row in samples])
            times, samples = np.array(times), np.array(samples)
        times += shifts[:, None]
        return times, self._quantize(samples)

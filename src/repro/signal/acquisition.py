"""Signal-acquisition front end: the oscilloscope model.

Stands in for the paper's Keysight DSOS804A (10 GSa/s) capturing the probe
output.  Models the practical imperfections the modulo operation has to
undo: a sampling grid asynchronous to the device clock, random trigger
offsets per repetition, additive white Gaussian noise, and finite ADC
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..robustness.errors import AcquisitionError
from ..robustness.faults import FaultInjector


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
    :meth:`~repro.hardware.emitter.HardwareEmitter.continuous` does.

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
        config = self.config
        step = config.adc_range / (2 ** config.adc_bits)
        # round(clip(x) / step) * step, in place on the clipped copy
        codes = np.clip(samples, -config.adc_range / 2,
                        config.adc_range / 2 - step)
        codes /= step
        np.round(codes, out=codes)
        codes *= step
        return codes

    def capture_repetition_list(self,
                                continuous: Callable[[np.ndarray, int,
                                                      float], np.ndarray],
                                duration_cycles: float,
                                repetitions: int) -> Tuple[list, list]:
        """Capture back-to-back repetitions as *separate* traces.

        This is the paper's "executed several times (1000 times in our
        measurements)" collection loop.  Returns ``(times_list,
        samples_list)`` of the delivered traces, each already shifted
        onto the common absolute time axis; repetitions lost to
        trigger/brown-out faults are recorded in
        ``last_repetition_stats`` instead of raising, so the caller
        decides how many losses are tolerable.

        The RNG stream is consumed per repetition, in order (trigger
        gating, jitter, noise, corruption draws); then ``y`` is evaluated
        **once**, on every delivered repetition's grid (its jitter, the
        sample count, one sample period), split, given its noise and
        corruption, and quantized.
        """
        config = self.config
        count = int(duration_cycles * config.effective_rate)
        plans = []          # (repetition, jitter, noise, recipe)
        lost = 0
        for repetition in range(repetitions):
            if self.injector is not None:
                try:
                    self.injector.begin_capture()
                except AcquisitionError:
                    lost += 1
                    continue
            jitter = self.rng.uniform(0, config.trigger_jitter_cycles)
            noise = self.rng.normal(0.0, config.noise_rms, size=count)
            recipe = self.injector.draw_corruption(count) \
                if self.injector is not None else None
            plans.append((repetition, jitter, noise, recipe))

        times_list: list = []
        samples_list: list = []
        if plans:
            values = continuous(np.array([plan[1] for plan in plans]),
                                count, 1.0 / config.effective_rate)
            grid = np.arange(count) / config.effective_rate
            offset = 0
            for repetition, jitter, noise, recipe in plans:
                samples = values[offset:offset + count] + noise
                offset += count
                times = jitter + grid
                if recipe is not None:
                    times, samples = self.injector.apply_corruption(
                        recipe, times, samples)
                times_list.append(times + repetition * duration_cycles)
                samples_list.append(self._quantize(samples))
        self.last_repetition_stats = RepetitionStats(requested=repetitions,
                                                     lost=lost)
        return times_list, samples_list

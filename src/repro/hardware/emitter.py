"""Ground-truth EM emission synthesis from a microarchitectural trace.

Superposes every unit's radiation: per cycle ``n`` each unit ``u``
contributes ``beta_u * g * a_u[n] * k_u(t - n)`` where ``a_u[n]`` combines
the unit's class-dependent static activity with its flip-weighted latch
transitions, ``k_u`` is the unit's own damped-sine kernel (own phase/shape),
``beta_u`` the probe coupling and ``g`` the device instance gain.

This is the finest-grained model in the package — the "physics" that both
the real measurements in the paper and EMSim's reduced per-stage model sit
on top of.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..uarch.latches import STAGES
from ..uarch.trace import EM_CLASSES, ActivityTrace
from .probe import CENTER, ProbePosition, coupling
from .units import EmUnit


class HardwareEmitter:
    """Synthesizes the analog emission of one device for one trace."""

    def __init__(self, units: Sequence[EmUnit],
                 probe: ProbePosition = CENTER,
                 gain: float = 1.0,
                 clock_scale: float = 1.0):
        self.units = tuple(units)
        self.probe = probe
        self.gain = gain
        self.clock_scale = clock_scale
        self._couplings = np.array([coupling(unit, probe) * unit.polarity
                                    for unit in self.units])
        # (units, EM classes): each unit's static activity per class
        self._static_activity = np.array(
            [[unit.static_activity(name) for name in EM_CLASSES]
             for unit in self.units])

    # ------------------------------------------------------------------
    # per-cycle unit amplitudes
    # ------------------------------------------------------------------
    def unit_amplitudes(self, trace: ActivityTrace) -> np.ndarray:
        """(cycles, units) matrix of raw per-unit activity amplitudes.

        A unit's amplitude is its static activity, gathered from its
        per-class table by the stage's EM codes, plus its flip-weighted
        latch transitions.
        """
        cycles = trace.num_cycles
        transitions = {stage: trace.transition_matrix(stage)
                       for stage in STAGES}
        codes = {stage: trace.em_codes(stage) for stage in STAGES}
        amplitudes = np.zeros((cycles, len(self.units)))
        for column, unit in enumerate(self.units):
            static = self._static_activity[column][codes[unit.stage]]
            flips = transitions[unit.stage][:, unit.bit_indices] @ \
                unit.bit_weights
            amplitudes[:, column] = static + flips
        return amplitudes

    # ------------------------------------------------------------------
    # waveform synthesis
    # ------------------------------------------------------------------
    def signal_on_grid(self, trace: ActivityTrace,
                       samples_per_cycle: int,
                       unit_names: Optional[Sequence[str]] = None
                       ) -> np.ndarray:
        """Noiseless emission on the uniform per-cycle sample grid.

        ``unit_names`` restricts synthesis to a subset of sources (used by
        diagnostics that look at one stage in isolation).
        """
        amplitudes = self.unit_amplitudes(trace)
        total = np.zeros(trace.num_cycles * samples_per_cycle)
        for column, unit in enumerate(self.units):
            if unit_names is not None and unit.name not in unit_names:
                continue
            impulses = np.zeros_like(total)
            impulses[::samples_per_cycle] = amplitudes[:, column]
            response = unit.kernel.sampled(samples_per_cycle)
            scaled = self.gain * self._couplings[column]
            # the measured-hardware emitter stays on the seed's direct
            # summation so captured references are bit-stable against
            # the committed model artifacts
            total += scaled * np.convolve(impulses, response)[:len(total)]
        return total

    def stage_signal_on_grid(self, trace: ActivityTrace, stage: str,
                             samples_per_cycle: int) -> np.ndarray:
        """Combined contribution of all sources in one pipeline stage."""
        names = tuple(unit.name for unit in self.units
                      if unit.stage == stage)
        return self.signal_on_grid(trace, samples_per_cycle,
                                   unit_names=names)

    def continuous(self, trace: ActivityTrace):
        """Return ``y(starts, count, step)``: the emission on time grids.

        ``y`` samples every repetition ``r`` at ``t = starts[r] + k * step``
        for ``k < count`` and returns the repetitions concatenated in
        order, as one 1-D array.  Times are in *nominal*-clock cycles: the
        device's actual clock may be slightly off nominal
        (``clock_scale``), so events land at ``n * clock_scale`` and
        kernels stretch accordingly, exactly what a scope with an
        absolute time base sees.

        Every unit radiates through a damped sine,
        ``Im(e^(i phase) * e^(lam * tau))`` with ``lam = 2 pi i / T0 -
        theta``, so its lag sum folds into one complex per-cycle table
        ``Z[n] = e^(i phase) * sum_lag w[n - lag] * e^(lam * lag)`` over
        lags ``0..ceil(support)`` inclusive, and ``y(n + f) = sum_u
        Im(Z[n, u] * e^(lam_u * f))``.  On a grid the fraction is
        ``f = frac(start) + frac(k * step) - c`` with a carry ``c`` of 0
        or 1 into the next cycle, so ``e^(lam * f)`` splits into one row
        ``e^(lam * frac(start))`` per repetition, one table
        ``P[k] = e^(lam * frac(k * step))`` shared by all repetitions,
        and ``e^(-lam * c)``, which the table's carry rows hold.  A sample
        then costs one row gather and a real dot product of two terms per
        unit (22 for the boards' 11 units); no sample pays a ``sin`` or
        ``exp``.
        """
        kernels = [unit.kernel for unit in self.units]
        weighted = self.unit_amplitudes(trace) * \
            (self.gain * self._couplings)[None, :]
        supports = np.array([int(np.ceil(kernel.support_cycles))
                             for kernel in kernels])
        lags = np.arange(supports.max() + 1)
        lam = np.array([2j * np.pi / kernel.t0 - kernel.theta
                        for kernel in kernels])
        lag_factor = np.where(lags[:, None] <= supports[None, :],
                              np.exp(np.multiply.outer(lags, lam)), 0.0)
        # zero-guard rows on both sides absorb out-of-range cycles; one
        # more zero row is the carry target of the last guard row
        pad = len(lags)
        rows = trace.num_cycles + 2 * pad
        padded = np.zeros((rows + 1, len(kernels)))
        padded[pad:pad + trace.num_cycles] = weighted
        table = np.zeros(padded.shape, dtype=complex)
        for lag in lags:
            table[lag:] += padded[:len(padded) - lag] * lag_factor[lag]
        table *= np.exp(1j * np.array([kernel.phase for kernel in kernels]))
        # row 2n holds Z[n], row 2n + 1 the carried Z[n + 1] * e^(-lam)
        pairs = np.empty((rows, 2, len(kernels)), dtype=complex)
        pairs[:, 0] = table[:-1]
        pairs[:, 1] = table[1:] * np.exp(-lam)
        pairs = pairs.reshape(2 * rows, len(kernels))
        scale = self.clock_scale

        def evaluate(starts: np.ndarray, count: int,
                     step: float) -> np.ndarray:
            starts = np.asarray(starts, dtype=float) / scale
            grid = np.arange(count) * step / scale
            grid_cycle = np.floor(grid)
            grid_frac = grid - grid_cycle
            start_cycle = np.floor(starts)
            start_frac = starts - start_cycle
            shared = np.exp(np.multiply.outer(grid_frac, lam))
            # Im(T * P) = Re(T) Im(P) + Im(T) Re(P): (Im P, Re P) pairs
            # line up with the (Re, Im) float view of a complex row
            weights = np.stack([shared.imag, shared.real], axis=-1) \
                .reshape(count, 2 * len(kernels))
            base = 2 * (grid_cycle.astype(int) + pad)
            result = np.empty((len(starts), count))
            for row, cycle, frac in zip(result, start_cycle.astype(int),
                                        start_frac):
                lead = (pairs * np.exp(frac * lam)).view(float)
                index = np.clip(base + 2 * cycle, 0, 2 * rows - 2)
                index += grid_frac >= 1.0 - frac
                np.einsum("ij,ij->i", np.take(lead, index, axis=0),
                          weights, out=row)
            return result.ravel()

        return evaluate

    # former name of the grid evaluator, kept as an alias because the
    # benchmark's layer tracer (bench/tracing.py) wraps both names
    continuous_fast = continuous


def stage_couplings(units: Sequence[EmUnit],
                    probe: ProbePosition) -> Dict[str, float]:
    """Mean |coupling| per pipeline stage at a probe position (diagnostic
    for the distance experiments, Fig. 9)."""
    per_stage: Dict[str, list] = {stage: [] for stage in STAGES}
    for unit in units:
        per_stage[unit.stage].append(abs(coupling(unit, probe)))
    return {stage: float(np.mean(values)) if values else 0.0
            for stage, values in per_stage.items()}

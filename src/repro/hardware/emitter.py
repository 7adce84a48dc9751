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

from ..signal.reconstruction import grid_phases
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
        # per stage with sources: its units' static-activity rows, and
        # each unit's column, the stage bits it taps (a slice when they
        # are one run) and their weights
        self._stage_units = []
        for stage in STAGES:
            columns = [column for column, unit in enumerate(self.units)
                       if unit.stage == stage]
            if columns:
                self._stage_units.append((
                    stage, self._static_activity[columns],
                    [(column, _taps(self.units[column].bit_indices),
                      self.units[column].bit_weights)
                     for column in columns]))

    # ------------------------------------------------------------------
    # per-cycle unit amplitudes
    # ------------------------------------------------------------------
    def unit_amplitudes(self, trace: ActivityTrace) -> np.ndarray:
        """(cycles, units) matrix of raw per-unit activity amplitudes.

        A unit's amplitude is its static activity, gathered from its
        per-class table by the stage's EM codes, plus its flip-weighted
        latch transitions.  Stage by stage: one gather serves the static
        activity of all of a stage's units, and each unit's flips are
        one matrix-vector product of its tapped transition bits.  That
        operand stays a ``uint8`` gather (or slice), which NumPy casts
        to a C-ordered ``float64`` copy: the product's rounding depends
        on that layout, and batching units into one product rounds
        differently.
        """
        amplitudes = np.zeros((trace.num_cycles, len(self.units)))
        for stage, table, taps in self._stage_units:
            transitions = trace.transition_matrix(stage)
            static = table[:, trace.em_codes(stage)]
            for row, (column, bits, weights) in enumerate(taps):
                amplitudes[:, column] = static[row] + \
                    transitions[:, bits] @ weights
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
        diagnostics that look at one stage in isolation).  A trace of no
        cycles gives an empty signal, as EMSim's simulation of it does.
        """
        total = np.zeros(trace.num_cycles * samples_per_cycle)
        if not len(total):
            return total
        amplitudes = self.unit_amplitudes(trace)
        # every unit rewrites the same sample slots, so one buffer serves
        impulses = np.zeros_like(total)
        for column, unit in enumerate(self.units):
            if unit_names is not None and unit.name not in unit_names:
                continue
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
        and ``e^(-lam * c)``, which the carry table
        ``T_1[n] = Z[n + 1] * e^(-lam)`` holds (``T_0 = Z``).

        Repetitions whose starts share a cycle read the same table row
        for sample ``k``, so they are evaluated together: with
        ``C[r] = e^(lam * frac(start_r))`` and, per carry, ``M_c[k] =
        T_c[row_k] * P[k]`` (one gather of ``count`` rows per start
        cycle, never per repetition), ``Im(C M_c^T) = Re C . Im M_c^T +
        Im C . Re M_c^T`` is one real matrix product of the
        (repetitions, 2 units) and (samples, 2 units) operands per carry,
        and each sample takes its own carry's product; the carried one
        covers only the samples that some repetition of the group
        carries.

        ``P`` depends only on the units' ``lam``, the step and the clock
        scale, so it comes from the plan cache
        (:func:`~repro.signal.reconstruction.grid_phases`): the first
        capture on a grid pays one complex ``exp`` per sample and unit,
        and later captures on it (every probe of a campaign on the scope
        grid) pay none.  Each call pays one ``exp`` per repetition and
        unit for ``C``.
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
        # T_0[n] = Z[n] and the carried T_1[n] = Z[n + 1] * e^(-lam)
        tables = (table[:-1], table[1:] * np.exp(-lam))
        scale = self.clock_scale

        def evaluate(starts: np.ndarray, count: int,
                     step: float) -> np.ndarray:
            starts = np.asarray(starts, dtype=float) / scale
            grid_cycle, grid_frac, shared = grid_phases(lam, step, scale,
                                                        count)
            start_cycle = np.floor(starts)
            start_frac = starts - start_cycle
            lead = np.exp(np.multiply.outer(start_frac, lam))
            # (Re C, Im C) rows meet (Im M, Re M) rows in one real product
            lead = np.concatenate([lead.real, lead.imag], axis=1)
            base = grid_cycle + pad
            cycles = np.unique(start_cycle)
            # one start cycle (every campaign capture): its products are
            # the result, so no (repetitions, count) copy is made
            result = np.empty((len(starts), count)) if len(cycles) > 1 \
                else None
            for cycle in cycles:
                group = start_cycle == cycle
                index = np.clip(base + int(cycle), 0, rows - 1)
                values = lead[group] @ _imag_real(tables[0][index],
                                                  shared).T
                # only samples that some repetition carries read T_1
                late = np.flatnonzero(
                    grid_frac >= 1.0 - start_frac[group].max())
                carried = lead[group] @ _imag_real(
                    tables[1][index[late]], shared[late]).T
                carries = grid_frac[late] >= 1.0 - start_frac[group, None]
                values[:, late] = np.where(carries, carried, values[:, late])
                if result is None:
                    return values.ravel()
                result[group] = values
            return result.ravel()

        return evaluate

    # former name of the grid evaluator, kept as an alias because the
    # benchmark's layer tracer (bench/tracing.py) wraps both names
    continuous_fast = continuous


def _taps(indices: np.ndarray):
    """``indices`` into a stage's bits as a slice when they are one
    ascending run, else as they are."""
    start = int(indices[0])
    if np.array_equal(indices, np.arange(start, start + len(indices))):
        return slice(start, start + len(indices))
    return indices


def _imag_real(rows: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """``[Im, Re]`` of ``rows * phases``, (rows, units) complex arrays,
    side by side; the product overwrites ``rows``, a gathered copy."""
    rows *= phases
    return np.concatenate([rows.imag, rows.real], axis=1)


def stage_couplings(units: Sequence[EmUnit],
                    probe: ProbePosition) -> Dict[str, float]:
    """Mean |coupling| per pipeline stage at a probe position (diagnostic
    for the distance experiments, Fig. 9)."""
    per_stage: Dict[str, list] = {stage: [] for stage in STAGES}
    for unit in units:
        per_stage[unit.stage].append(abs(coupling(unit, probe)))
    return {stage: float(np.mean(values)) if values else 0.0
            for stage, values in per_stage.items()}

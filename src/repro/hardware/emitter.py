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

    def per_unit_signals(self, trace: ActivityTrace,
                         samples_per_cycle: int) -> Dict[str, np.ndarray]:
        """Each unit's individual contribution on the uniform grid."""
        return {unit.name: self.signal_on_grid(trace, samples_per_cycle,
                                               unit_names=(unit.name,))
                for unit in self.units}

    def stage_signal_on_grid(self, trace: ActivityTrace, stage: str,
                             samples_per_cycle: int) -> np.ndarray:
        """Combined contribution of all sources in one pipeline stage."""
        names = tuple(unit.name for unit in self.units
                      if unit.stage == stage)
        return self.signal_on_grid(trace, samples_per_cycle,
                                   unit_names=names)

    def continuous(self, trace: ActivityTrace):
        """Return ``y(t)`` in *nominal*-clock cycle units.

        The device's actual clock may be slightly off nominal
        (``clock_scale``); events land at ``n * clock_scale`` and kernels
        stretch accordingly, exactly what a scope with an absolute time
        base sees.

        Every unit radiates through a damped sine, so each kernel is
        rewritten across its integer lags with the angle addition
        formula: ``k(frac + lag)`` becomes a per-sample ``(sin, exp)``
        pair times per-lag constants, and the lag sums fold into
        per-cycle tables up front.  One unit then costs two
        transcendental passes per sample instead of two per lag.
        """
        units = self.units
        amplitudes = self.unit_amplitudes(trace)
        weighted = amplitudes * (self.gain * self._couplings)[None, :]
        num_cycles = trace.num_cycles
        scale = self.clock_scale

        supports = np.array([int(np.ceil(unit.kernel.support_cycles))
                             for unit in units])
        max_lag = int(supports.max())
        lags = np.arange(max_lag + 1)
        t0 = np.array([unit.kernel.t0 for unit in units])
        theta = np.array([unit.kernel.theta for unit in units])
        phase = np.array([unit.kernel.phase for unit in units])
        # (lags, units) constants: cos/sin of the per-lag phase advance,
        # scaled by the per-lag decay; zeroed beyond each unit's support
        lag_angle = 2.0 * np.pi * lags[:, None] / t0[None, :]
        lag_decay = np.exp(-theta[None, :] * lags[:, None])
        in_support = lags[:, None] <= supports[None, :]
        lag_cos = np.where(in_support, np.cos(lag_angle) * lag_decay, 0.0)
        lag_sin = np.where(in_support, np.sin(lag_angle) * lag_decay, 0.0)
        # The lag sums depend on a sample time only through its integer
        # base cycle, so fold them into per-*cycle* tables up front
        # (a tiny convolution over the trace's cycles) — the per-sample
        # work then reduces to one row gather plus the transcendentals.
        # Zero-guard rows on both sides absorb out-of-range cycles.
        pad = max_lag + 1
        padded = np.zeros((num_cycles + 2 * pad, len(units)))
        padded[pad:pad + num_cycles] = weighted
        rows = padded.shape[0]
        cos_table = np.zeros_like(padded)
        sin_table = np.zeros_like(padded)
        for lag in range(max_lag + 1):
            shifted = np.roll(padded, lag, axis=0)
            shifted[:lag] = 0.0
            cos_table += shifted * lag_cos[lag][None, :]
            sin_table += shifted * lag_sin[lag][None, :]
        # fold the per-unit probe phase into the tables too, so the
        # per-sample angle is a bare outer product (one fewer pass):
        #   sin(a f + phi) X + cos(a f + phi) Y
        #     = sin(a f)(X cos phi - Y sin phi)
        #       + cos(a f)(X sin phi + Y cos phi)
        cos_phase, sin_phase = np.cos(phase), np.sin(phase)
        cos_table, sin_table = \
            (cos_table * cos_phase[None, :] -
             sin_table * sin_phase[None, :],
             cos_table * sin_phase[None, :] +
             sin_table * cos_phase[None, :])
        # collapse each cycle's (X, Y) pair to amplitude/phase form:
        #   X sin(a f) + Y cos(a f)  =  R sin(a f + psi)
        # with R = hypot(X, Y), psi = atan2(Y, X) — a few hundred cheap
        # per-cycle transcendentals up front buy one fewer per-sample
        # transcendental pass below (sin instead of sin + cos)
        amp_table = np.hypot(cos_table, sin_table)
        shift_table = np.arctan2(sin_table, cos_table)
        angular = 2.0 * np.pi / t0
        neg_theta = -theta
        # process in fixed-size chunks through preallocated buffers:
        # keeps the working set L2-resident and avoids page-faulting a
        # fresh ~2 MB temporary per elementwise pass on long time grids
        chunk = 4096
        num_units = len(units)
        angle_buf = np.empty((chunk, num_units))
        decay_buf = np.empty((chunk, num_units))

        def evaluate(times: np.ndarray) -> np.ndarray:
            times = np.asarray(times, dtype=float) / scale
            base_cycle = np.floor(times).astype(int)
            frac = times - base_cycle
            index = np.clip(base_cycle + pad, 0, rows - 1)
            result = np.empty(len(times))
            for start in range(0, len(times), chunk):
                stop = min(start + chunk, len(times))
                count = stop - start
                angle = angle_buf[:count]
                decay = decay_buf[:count]
                rows_here = index[start:stop]
                np.multiply(frac[start:stop, None], angular[None, :],
                            out=angle)
                angle += shift_table[rows_here]
                np.sin(angle, out=angle)
                angle *= amp_table[rows_here]
                np.multiply(frac[start:stop, None], neg_theta[None, :],
                            out=decay)
                np.exp(decay, out=decay)
                angle *= decay
                result[start:stop] = angle.sum(axis=1)
            return result

        return evaluate

    # former name of the lag-factored evaluator, kept as an alias because
    # the benchmark's layer tracer (bench/tracing.py) wraps both names
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

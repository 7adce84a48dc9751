"""The measurement bench: device under test + probe + oscilloscope.

:class:`HardwareDevice` plays the role of the paper's FPGA board on the
bench: it runs a program on the (fully known) microarchitecture, radiates
through :class:`~repro.hardware.emitter.HardwareEmitter`, and is captured
either ideally (noiseless grid — what infinitely-averaged modulo extraction
converges to) or through the full scope + modulo-operation pipeline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..isa.program import Program
from ..robustness.errors import AcquisitionError, ConfigurationError
from ..robustness.faults import FaultInjector, FaultPlan
from ..robustness.health import (CaptureQuality, assess_capture,
                                 screen_repetitions)
from ..signal.acquisition import Oscilloscope, ScopeConfig
from ..signal.modulo import modulo_average
from ..uarch.config import CoreConfig, DEFAULT_CONFIG
from ..uarch.pipeline import Pipeline
from ..uarch.trace import ActivityTrace
from .boards import DE0_CV, BoardProfile, DeviceInstance
from .emitter import HardwareEmitter
from .probe import CENTER, ProbePosition

DEFAULT_SAMPLES_PER_CYCLE = 20
"""Uniform-grid resolution used throughout the reproduction."""


@dataclass
class Measurement:
    """One captured signal with its provenance."""

    signal: np.ndarray
    trace: ActivityTrace
    samples_per_cycle: int
    program_name: str
    device_name: str
    method: str               # "ideal" or "reference"
    # bench-observable quality of the capture; populated on the full
    # scope + modulo path, None on the ideal grid (which is exact)
    quality: Optional[CaptureQuality] = None

    @property
    def num_cycles(self) -> int:
        """Clock cycles covered by the capture."""
        return len(self.signal) // self.samples_per_cycle


class HardwareDevice:
    """One physical device instance on the bench."""

    def __init__(self,
                 instance: Optional[DeviceInstance] = None,
                 board: Optional[BoardProfile] = None,
                 probe: ProbePosition = CENTER,
                 core_config: CoreConfig = DEFAULT_CONFIG,
                 scope_config: Optional[ScopeConfig] = None,
                 samples_per_cycle: int = DEFAULT_SAMPLES_PER_CYCLE,
                 seed: int = 12345,
                 alu_bug: Optional[object] = None,
                 core_kind: str = "in-order",
                 fault_plan: Optional[FaultPlan] = None,
                 auto_range: bool = True):
        if core_kind not in ("in-order", "out-of-order"):
            raise ConfigurationError(f"unknown core kind: {core_kind!r}")
        if instance is None:
            instance = DeviceInstance(board=board or DE0_CV)
        elif board is not None and instance.board is not board:
            raise ConfigurationError("pass either instance or board, "
                                     "not both")
        self.instance = instance
        self.probe = probe
        self.core_config = core_config
        self.scope_config = scope_config or ScopeConfig()
        self.samples_per_cycle = samples_per_cycle
        self.rng = np.random.default_rng(seed)
        self.alu_bug = alu_bug
        self.core_kind = core_kind
        self.fault_plan = fault_plan
        self.fault_injector = FaultInjector(fault_plan) \
            if fault_plan is not None and fault_plan.any_active else None
        self.auto_range = auto_range
        self.units = instance.units()
        self.emitter = HardwareEmitter(
            self.units, probe=probe, gain=instance.gain_jitter,
            clock_scale=instance.clock_scale)
        # content digest of everything the *ideal* capture depends on
        # beyond the program/config: the board's electrical personality
        # (units are rebuilt deterministically from the profile), the
        # instance spread, and the probe position.  Lets ideal captures
        # be memoized in the global trace cache across device objects.
        self._emitter_digest = hashlib.sha256(repr(
            (self.instance.board, self.instance.instance_id,
             self.probe, self.instance.gain_jitter,
             self.instance.clock_scale)).encode()).hexdigest()

    @property
    def name(self) -> str:
        """Readable device identity, e.g. ``de0-cv#0``."""
        return f"{self.instance.board.name}#{self.instance.instance_id}"

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, program: Program,
            max_cycles: Optional[int] = None):
        """Execute ``program`` on the device's core; returns trace+core."""
        if self.core_kind == "out-of-order":
            from ..uarch.ooo import OutOfOrderCore
            core = OutOfOrderCore(program, config=self.core_config)
        else:
            core = Pipeline(program, config=self.core_config,
                            alu_bug=self.alu_bug)
        trace = core.run(max_cycles=max_cycles)
        return trace, core

    def run_trace(self, program: Program,
                  max_cycles: Optional[int] = None) -> ActivityTrace:
        """Activity trace for ``program``, served from the trace cache.

        The pipeline is deterministic for a given (program, config,
        core kind) triple, so traces are memoized in the process-wide
        content-addressed cache.  An injected ALU bug changes execution
        without being part of the content key, so bugged devices always
        simulate afresh.
        """
        if self.alu_bug is not None:
            trace, _ = self.run(program, max_cycles=max_cycles)
            return trace
        from ..core.trace_cache import get_trace_cache

        def runner() -> ActivityTrace:
            trace, _ = self.run(program, max_cycles=max_cycles)
            return trace

        return get_trace_cache().get_or_run(
            program, self.core_config, runner, core_kind=self.core_kind,
            max_cycles=max_cycles, category="device")

    # ------------------------------------------------------------------
    # capture paths
    # ------------------------------------------------------------------
    def capture_ideal(self, program: Program,
                      max_cycles: Optional[int] = None) -> Measurement:
        """Noiseless emission on the uniform grid.

        Equivalent to the reference signal after unlimited modulo
        averaging; the fast path for large experiments.  The capture is
        a pure function of (program, config, emitter, grid) — no RNG,
        no fault path — so whole measurements are memoized in the trace
        cache under an emitter-salted key; calibration loops that probe
        the same programs fit after fit skip both the pipeline and the
        emitter synthesis.
        """
        def runner() -> Measurement:
            trace = self.run_trace(program, max_cycles=max_cycles)
            signal = self.emitter.signal_on_grid(trace,
                                                 self.samples_per_cycle)
            return Measurement(signal=signal, trace=trace,
                               samples_per_cycle=self.samples_per_cycle,
                               program_name=program.name,
                               device_name=self.name, method="ideal")

        if self.alu_bug is not None:
            return runner()
        from ..core.trace_cache import get_trace_cache
        salt = f"ideal:{self._emitter_digest}:{self.samples_per_cycle}"
        return get_trace_cache().get_or_run(
            program, self.core_config, runner, core_kind=self.core_kind,
            max_cycles=max_cycles, salt=salt, category="ideal")

    def capture_reference(self, program: Program,
                          repetitions: int = 100,
                          max_cycles: Optional[int] = None) -> Measurement:
        """Full acquisition chain: scope sampling + modulo averaging.

        The paper's §II-B procedure — ``repetitions`` noisy asynchronous
        captures folded by Eq. 1 onto the per-cycle grid.  The folding
        period uses the device's *actual* clock (measured in practice from
        the signal itself), so manufacturing clock offsets appear only as
        a slight per-cycle waveform stretch.

        The device's fault plan (if any) corrupts this path — and only
        this path; the ideal grid stays exact, which is what makes it a
        valid degradation fallback.  Delivered repetitions are screened
        individually (clipping, energy, fold residual) before the fold,
        and the returned measurement carries a
        :class:`~repro.robustness.health.CaptureQuality` for gating.
        Each capture is binned and folded once: when the screen's
        residual stage rejects none of its survivors, its provisional
        fold is the reference; the offset bins it computed for
        equal-length repetitions feed any later fold and the quality
        statistics, and the kept sample times are then never
        concatenated.

        The repetitions are collected in one vectorized pass: every
        trigger and noise draw comes off the device RNG in repetition
        order, then ``y`` is evaluated once on all of their sampling
        grids, so the result is a pure function of the program and the
        RNG state.

        Only the deterministic pipeline trace is cache-served here; the
        scope path (noise, faults, screening) always runs live.
        """
        trace = self.run_trace(program, max_cycles=max_cycles)
        waveform = self.emitter.continuous(trace)
        duration = trace.num_cycles * self.instance.clock_scale
        scope_config = self.scope_config
        num_bins = trace.num_cycles * self.samples_per_cycle
        if self.auto_range:
            # the operator's vertical auto-range: one pilot sweep sets the
            # ADC full scale so dense programs don't rail the converter
            # (the default 4.0 full scale clips heavy combination groups)
            pilot = waveform(np.zeros(1), num_bins, duration / num_bins)
            span = float(np.max(np.abs(pilot)))
            if span > 0:
                scope_config = replace(scope_config,
                                       adc_range=2.5 * span)
        scope = Oscilloscope(scope_config, self.rng,
                             injector=self.fault_injector)
        times_list, samples_list = scope.capture_repetition_list(
            waveform, duration, repetitions)
        stats = scope.last_repetition_stats
        if not samples_list:
            raise AcquisitionError(
                f"capture run lost all {repetitions} repetitions "
                f"to trigger/brown-out faults")
        screen = screen_repetitions(
            times_list, samples_list, period=duration, num_bins=num_bins,
            adc_range=scope_config.adc_range,
            adc_bits=scope_config.adc_bits)
        kept = np.flatnonzero(screen.keep)
        if not kept.size:
            raise AcquisitionError(
                f"all {len(samples_list)} delivered repetitions were "
                f"screened out as corrupt")
        samples = np.concatenate([samples_list[i] for i in kept])
        # bin and fold once: the screen's bins are the kept samples' bins
        # whenever it stacked equal-length repetitions, and its fold is
        # the reference whenever it covers exactly the kept repetitions
        bins = times = None
        if screen.bins is not None:
            bins = screen.bins[kept].ravel()
        else:
            times = np.concatenate([times_list[i] for i in kept])
        reference = screen.reference
        if reference is None:
            reference, _ = modulo_average(
                samples, times, period=duration, num_bins=num_bins,
                bins=bins)
        quality = assess_capture(
            samples, times, period=duration, num_bins=num_bins,
            adc_range=scope_config.adc_range,
            adc_bits=scope_config.adc_bits,
            lost_repetitions=stats.lost,
            screened_repetitions=screen.rejected,
            total_repetitions=stats.requested,
            reference=reference, bins=bins)
        return Measurement(signal=reference, trace=trace,
                           samples_per_cycle=self.samples_per_cycle,
                           program_name=program.name,
                           device_name=self.name, method="reference",
                           quality=quality)

    def capture_single(self, program: Program,
                       noise_rms: Optional[float] = None,
                       max_cycles: Optional[int] = None) -> Measurement:
        """One single-shot trace: uniform grid plus AWGN, no averaging.

        This is what an attacker (or a TVLA campaign) records per
        execution — individual noisy traces, not modulo-averaged
        references.
        """
        if noise_rms is None:
            noise_rms = self.scope_config.noise_rms
        measurement = self.capture_ideal(program, max_cycles=max_cycles)
        noisy = measurement.signal + self.rng.normal(
            0.0, noise_rms, size=measurement.signal.shape)
        return Measurement(signal=noisy, trace=measurement.trace,
                           samples_per_cycle=self.samples_per_cycle,
                           program_name=program.name,
                           device_name=self.name, method="single")

    def measure(self, program: Program, method: str = "ideal",
                repetitions: int = 100,
                max_cycles: Optional[int] = None) -> Measurement:
        """Capture via the chosen method (``ideal`` or ``reference``)."""
        if method == "ideal":
            return self.capture_ideal(program, max_cycles=max_cycles)
        if method == "reference":
            return self.capture_reference(program, repetitions=repetitions,
                                          max_cycles=max_cycles)
        raise ConfigurationError(f"unknown capture method: {method!r}")

"""Seeded, composable fault injection for the oscilloscope/device path.

Real model-building campaigns (thousands of scope captures, §V-A of the
paper) see every failure a bench can produce: missed triggers, probe
cables that drift as they heat, ADC saturation from a gain surge, burst
interference from neighbouring equipment, clock-jitter spikes, dropped
samples, and whole-device brown-outs.  This module reproduces those
faults *deterministically* so the resilient acquisition path (health
gates, retry, degradation — :mod:`repro.robustness.retry`) and the robust
fitting path (:mod:`repro.core.regression`) can be exercised and
regression-tested.

A :class:`FaultPlan` declares per-capture probabilities and magnitudes;
a :class:`FaultInjector` owns the seeded RNG plus the (stateful)
brown-out countdown and is threaded into
:class:`~repro.signal.acquisition.Oscilloscope`.  Capture-killing faults
(trigger loss, brown-out) raise :class:`~repro.robustness.errors.AcquisitionError`;
signal-corrupting faults transform the ``(times, samples)`` pair in
place of the clean capture.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .errors import AcquisitionError, ConfigurationError

__all__ = ["FaultPlan", "FaultInjector", "CorruptionRecipe", "FAULT_KINDS"]

FAULT_KINDS = ("trigger_loss", "brownout", "drop", "saturation", "burst",
               "drift", "jitter_spike")
"""Every fault family the injector can produce, in application order."""


@dataclass(frozen=True)
class FaultPlan:
    """Per-capture fault probabilities and magnitudes.

    All probabilities are evaluated independently per capture (per
    repetition on the repetition loop), so faults compose: a single
    capture can drift *and* clip *and* lose samples.  ``seed`` makes the
    whole fault stream reproducible.
    """

    # capture-killing faults
    trigger_loss_prob: float = 0.0    # scope never fires; trace lost
    brownout_prob: float = 0.0        # device browns out ...
    brownout_captures: int = 3        # ... for this many captures

    # sample-corrupting faults
    drop_rate: float = 0.0            # per-sample loss probability
    saturation_prob: float = 0.0      # transient gain surge -> ADC rails
    saturation_gain: float = 8.0
    burst_prob: float = 0.0           # burst interference window
    burst_fraction: float = 0.08      # fraction of the capture hit
    burst_rms: float = 1.5            # burst noise std-dev (signal units)
    drift_prob: float = 0.0           # probe gain ramps across a capture
    drift_span: float = 0.35          # max fractional gain change
    jitter_spike_prob: float = 0.0    # clock spike shifts the time base
    jitter_spike_cycles: float = 0.8  # shift magnitude (device cycles)

    seed: int = 0

    @property
    def any_active(self) -> bool:
        """Whether this plan can produce any fault at all."""
        return any(getattr(self, f) > 0.0 for f in (
            "trigger_loss_prob", "brownout_prob", "drop_rate",
            "saturation_prob", "burst_prob", "drift_prob",
            "jitter_spike_prob"))

    @classmethod
    def preset(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Canonical mixed-fault plan at a headline per-capture rate.

        ``rate`` is the probability of each *major* fault family hitting a
        given capture (the "20 % capture-fault rate" of the acceptance
        experiments); rarer catastrophic faults scale down from it.
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(
                f"fault rate must be in [0, 1]: {rate!r}")
        return cls(
            trigger_loss_prob=rate,
            brownout_prob=rate / 10.0,
            drop_rate=rate / 10.0,
            saturation_prob=rate,
            burst_prob=rate,
            drift_prob=rate,
            jitter_spike_prob=rate / 2.0,
            seed=seed)

    def describe(self) -> str:
        """Compact non-zero-fields description for logs."""
        parts = []
        for field_ in fields(self):
            if field_.name == "seed":
                continue
            value = getattr(self, field_.name)
            default = field_.default
            if value != default:
                parts.append(f"{field_.name}={value:g}")
        return f"FaultPlan({', '.join(parts) or 'clean'}, seed={self.seed})"


@dataclass
class CorruptionRecipe:
    """One capture's drawn corruption decisions, ready to apply.

    Produced by :meth:`FaultInjector.draw_corruption`; ``None`` fields
    mean the corresponding fault did not fire.  Splitting draw from
    apply lets the vectorized repetition capture consume the injector's
    RNG stream in exact per-repetition order while deferring the
    (hoisted) signal evaluation.
    """

    drift_span: Optional[float] = None
    saturate: bool = False
    burst_start: int = 0
    burst_noise: Optional[np.ndarray] = None
    jitter_pivot: Optional[int] = None
    jitter_shift: float = 0.0
    drop_keep: Optional[np.ndarray] = None


class FaultInjector:
    """Applies a :class:`FaultPlan` to successive captures.

    Stateful: owns the seeded RNG stream and the brown-out countdown, and
    counts every fault fired (``counters``) so tests and run reports can
    verify the injected mix.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.counters: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._brownout_remaining = 0

    @contextmanager
    def reseeded(self, rng: np.random.Generator
                 ) -> Iterator["FaultInjector"]:
        """Draw every fault decision inside the block from ``rng``.

        Campaigns give every item its own deterministic fault stream
        this way (independent of worker scheduling).  A fresh stream
        implies a fresh bench state, so the brown-out countdown starts
        cleared; when the block ends the injector's own stream and
        countdown come back.  The fault counters keep accumulating.
        """
        saved = self.rng, self._brownout_remaining
        self.rng, self._brownout_remaining = rng, 0
        try:
            yield self
        finally:
            self.rng, self._brownout_remaining = saved

    # ------------------------------------------------------------------
    # capture-killing faults
    # ------------------------------------------------------------------
    def begin_capture(self) -> None:
        """Gate one capture attempt; raises if the trace is lost."""
        plan = self.plan
        if self._brownout_remaining > 0:
            self._brownout_remaining -= 1
            self.counters["brownout"] += 1
            raise AcquisitionError("device brown-out: no response from "
                                   "the device under test")
        if plan.brownout_prob > 0.0 and \
                self.rng.random() < plan.brownout_prob:
            # this capture and the next few all fail
            self._brownout_remaining = max(0, plan.brownout_captures - 1)
            self.counters["brownout"] += 1
            raise AcquisitionError("device brown-out: supply dipped "
                                   "mid-capture")
        if plan.trigger_loss_prob > 0.0 and \
                self.rng.random() < plan.trigger_loss_prob:
            self.counters["trigger_loss"] += 1
            raise AcquisitionError("trigger loss: scope did not fire")

    # ------------------------------------------------------------------
    # sample-corrupting faults
    # ------------------------------------------------------------------
    def draw_corruption(self, length: int) -> "CorruptionRecipe":
        """Draw this capture's corruption decisions without applying them.

        Every fault decision is *value-independent* — the RNG draws
        depend only on the capture length — so the vectorized repetition
        capture can consume the fault stream in exact sequential order
        *before* the (hoisted) waveform evaluation, then apply the
        recorded recipe afterwards.  One ``draw_corruption`` +
        :meth:`apply_corruption` pair is bit-identical to one
        :meth:`corrupt` call, including the RNG stream it leaves behind.
        """
        plan, rng = self.plan, self.rng
        recipe = CorruptionRecipe()

        if plan.drift_prob > 0.0 and rng.random() < plan.drift_prob:
            self.counters["drift"] += 1
            recipe.drift_span = plan.drift_span * rng.uniform(-1.0, 1.0)

        if plan.saturation_prob > 0.0 and \
                rng.random() < plan.saturation_prob:
            self.counters["saturation"] += 1
            recipe.saturate = True

        if plan.burst_prob > 0.0 and rng.random() < plan.burst_prob:
            self.counters["burst"] += 1
            width = max(1, int(plan.burst_fraction * length))
            recipe.burst_start = int(rng.integers(0, max(1, length - width)))
            recipe.burst_noise = rng.normal(0.0, plan.burst_rms, size=width)

        if plan.jitter_spike_prob > 0.0 and \
                rng.random() < plan.jitter_spike_prob:
            self.counters["jitter_spike"] += 1
            recipe.jitter_pivot = int(rng.integers(0, max(1, length)))
            recipe.jitter_shift = plan.jitter_spike_cycles * \
                rng.uniform(-1.0, 1.0)

        if plan.drop_rate > 0.0:
            keep = rng.random(length) >= plan.drop_rate
            if not keep.all():
                self.counters["drop"] += 1
                recipe.drop_keep = keep

        return recipe

    def apply_corruption(self, recipe: "CorruptionRecipe",
                         times: np.ndarray, samples: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply a previously drawn :class:`CorruptionRecipe`.

        Pure (no RNG): transforms ``(times, samples)`` exactly as the
        inline path would have.
        """
        plan = self.plan
        times = np.asarray(times, dtype=float)
        samples = np.asarray(samples, dtype=float)

        if recipe.drift_span is not None:
            samples = samples * np.linspace(1.0, 1.0 + recipe.drift_span,
                                            len(samples))
        if recipe.saturate:
            samples = samples * plan.saturation_gain
        if recipe.burst_noise is not None:
            samples = samples.copy()
            start = recipe.burst_start
            samples[start:start + len(recipe.burst_noise)] += \
                recipe.burst_noise
        if recipe.jitter_pivot is not None:
            times = times.copy()
            times[recipe.jitter_pivot:] += recipe.jitter_shift
        if recipe.drop_keep is not None:
            times = times[recipe.drop_keep]
            samples = samples[recipe.drop_keep]
        return times, samples

    def corrupt(self, times: np.ndarray, samples: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply the plan's signal-level faults to one raw capture.

        Returns possibly-shorter arrays (dropped samples are removed, not
        zero-filled — exactly what a scope with transfer hiccups hands
        back).  Applied *before* ADC quantization so saturation rails.
        """
        samples = np.asarray(samples, dtype=float)
        recipe = self.draw_corruption(len(samples))
        return self.apply_corruption(recipe, times, samples)

    def total_faults(self) -> int:
        """Total fault events fired so far (all kinds)."""
        return sum(self.counters.values())

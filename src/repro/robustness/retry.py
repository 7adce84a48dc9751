"""Bounded retry, exponential backoff, and graceful degradation.

The acquisition ladder for one probe measurement:

1. **capture** via the requested method (scope + modulo by default);
2. **health-gate** the capture (:class:`~repro.robustness.health.HealthPolicy`);
3. on failure, **retry** with exponential backoff and deterministic
   jitter, **escalating the repetition count** (more modulo averaging)
   once quality — not delivery — is the problem;
4. after the attempt budget, **degrade** to the ideal-grid capture with a
   logged warning (unless ``strict``), so one bad probe never kills a
   thousand-probe training campaign.

Everything is deterministic: backoff jitter comes from a seeded RNG and
the default ``sleep`` is a no-op (the synthetic bench has no real scope
to wait for; a hardware port passes ``time.sleep``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import AcquisitionError, CaptureQualityError
from .health import HealthPolicy

__all__ = ["RetryPolicy", "ProbeOutcome", "AcquisitionStats",
           "CaptureSupervisor"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter."""

    max_attempts: int = 4
    base_delay: float = 0.01      # seconds before the first retry
    backoff: float = 2.0          # delay multiplier per retry
    jitter: float = 0.25          # +/- fractional jitter on each delay
    max_delay: float = 1.0
    escalation: float = 2.0       # repetition multiplier per quality miss
    max_repetitions: int = 1000   # the paper's collection budget
    seed: int = 0

    def delay(self, retry_index: int) -> float:
        """Backoff delay before retry ``retry_index`` (0-based).

        Jitter is drawn from an RNG keyed on ``(seed, retry_index)`` so a
        given policy always produces the same schedule — reproducible
        runs, desynchronized benches.
        """
        raw = min(self.max_delay,
                  self.base_delay * self.backoff ** retry_index)
        wobble = np.random.default_rng(
            [self.seed, retry_index]).uniform(-1.0, 1.0)
        return max(0.0, raw * (1.0 + self.jitter * wobble))

    def schedule(self) -> List[float]:
        """The full deterministic delay schedule (one per retry)."""
        return [self.delay(i) for i in range(self.max_attempts - 1)]


@dataclass
class ProbeOutcome:
    """What it took to obtain one probe measurement."""

    program: str = ""
    attempts: int = 1
    retries: int = 0
    capture_failures: int = 0     # AcquisitionError during delivery
    quality_rejects: int = 0      # health-gate rejections
    escalations: int = 0          # repetition-count bumps
    degraded: bool = False        # fell back to the ideal grid
    final_method: str = ""
    final_repetitions: int = 0
    waited: float = 0.0           # total scheduled backoff (seconds)
    reasons: List[str] = field(default_factory=list)


@dataclass
class AcquisitionStats:
    """Aggregate acquisition accounting across a training run."""

    probes: int = 0
    captures_attempted: int = 0
    probes_retried: int = 0
    capture_failures: int = 0
    quality_rejects: int = 0
    escalations: int = 0
    probes_degraded: int = 0

    def record(self, outcome: ProbeOutcome) -> None:
        self.probes += 1
        self.captures_attempted += outcome.attempts
        if outcome.retries:
            self.probes_retried += 1
        self.capture_failures += outcome.capture_failures
        self.quality_rejects += outcome.quality_rejects
        self.escalations += outcome.escalations
        if outcome.degraded:
            self.probes_degraded += 1

    def summary(self) -> str:
        return (f"probes={self.probes} captures={self.captures_attempted} "
                f"retried={self.probes_retried} "
                f"rejected={self.quality_rejects} "
                f"lost={self.capture_failures} "
                f"escalated={self.escalations} "
                f"degraded={self.probes_degraded}")


class CaptureSupervisor:
    """Runs the retry/escalate/degrade ladder around a device bench.

    ``allow_degradation=False`` (the CLI's ``--strict``) turns the final
    ideal-grid fallback off: the last typed error propagates instead.
    """

    def __init__(self, device,
                 retry: Optional[RetryPolicy] = None,
                 health: Optional[HealthPolicy] = None,
                 allow_degradation: bool = True,
                 sleep: Optional[Callable[[float], None]] = None,
                 log: Optional[Callable[[str], None]] = None):
        self.device = device
        self.retry = retry or RetryPolicy()
        self.health = health or HealthPolicy()
        self.allow_degradation = allow_degradation
        self.sleep = sleep
        self.log = log
        self.stats = AcquisitionStats()

    def _note(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def measure(self, program, method: str = "ideal",
                repetitions: int = 100, max_cycles: Optional[int] = None):
        """Acquire one gated measurement; returns ``(measurement, outcome)``.

        Raises the last :class:`AcquisitionError` /
        :class:`CaptureQualityError` only when degradation is disabled
        (or impossible, i.e. the ideal path itself failed).
        """
        # str() only for an object without a name: a program's repr
        # formats its whole instruction list and data image
        name = getattr(program, "name", None)
        if name is None:
            name = str(program)
        outcome = ProbeOutcome(program=name, final_method=method,
                               final_repetitions=repetitions)
        reps = repetitions
        last_error: Optional[Exception] = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                delay = self.retry.delay(attempt - 1)
                outcome.waited += delay
                if self.sleep is not None:
                    self.sleep(delay)
                outcome.retries += 1
                outcome.attempts += 1
            try:
                measurement = self.device.measure(
                    program, method=method, repetitions=reps,
                    max_cycles=max_cycles)
            except CaptureQualityError as error:   # raised by strict benches
                last_error = error
                outcome.quality_rejects += 1
                outcome.reasons.append(str(error))
                reps, outcome = self._escalate(reps, outcome)
                continue
            except AcquisitionError as error:
                last_error = error
                outcome.capture_failures += 1
                outcome.reasons.append(str(error))
                continue
            quality = getattr(measurement, "quality", None)
            if quality is not None:
                violations = self.health.violations(quality)
                if violations:
                    last_error = CaptureQualityError(
                        f"probe {outcome.program!r}: "
                        f"{'; '.join(violations)}",
                        violations=violations)
                    outcome.quality_rejects += 1
                    outcome.reasons.append(str(last_error))
                    reps, outcome = self._escalate(reps, outcome)
                    continue
            outcome.final_method = method
            outcome.final_repetitions = reps
            self.stats.record(outcome)
            return measurement, outcome

        if self.allow_degradation and method != "ideal":
            self._note(f"WARNING: probe {outcome.program!r} degraded to "
                       f"ideal-grid capture after "
                       f"{outcome.attempts} attempts "
                       f"({outcome.reasons[-1] if outcome.reasons else 'n/a'})")
            measurement = self.device.capture_ideal(program,
                                                    max_cycles=max_cycles)
            outcome.degraded = True
            outcome.final_method = "ideal"
            self.stats.record(outcome)
            return measurement, outcome

        self.stats.record(outcome)
        if last_error is None:      # pragma: no cover - defensive
            last_error = AcquisitionError(
                f"probe {outcome.program!r}: no capture obtained")
        raise last_error

    def _escalate(self, reps, outcome):
        """Bump the repetition count after a quality rejection."""
        escalated = min(self.retry.max_repetitions,
                        int(np.ceil(reps * self.retry.escalation)))
        if escalated > reps:
            outcome.escalations += 1
            self._note(f"probe {outcome.program!r}: escalating "
                       f"repetitions {reps} -> {escalated}")
        return escalated, outcome

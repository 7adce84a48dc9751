"""Typed error hierarchy for the bench-to-model pipeline.

A real EMSim bench fails in distinguishable ways — the scope loses a
trigger, a capture is too dirty to use, a fit diverges, a model file on
disk is truncated — and each failure needs a different reaction (retry,
escalate, degrade, or abort with a precise message).  Every error the
reproduction raises on purpose derives from :class:`ReproError`, so the
CLI can map failure families to distinct exit codes and callers can catch
exactly the layer they can handle.

Some subclasses also derive from :class:`ValueError` where they replace
``ValueError`` raises that predate this hierarchy, so existing callers
(and tests) keep working unchanged.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base of every intentional failure in the reproduction pipeline."""

    #: process exit code used by the CLI; each subclass gets its own so
    #: scripts can branch on the failure family (argparse owns 2).
    exit_code = 10


class AcquisitionError(ReproError):
    """The bench failed to deliver a capture at all.

    Raised for trigger loss, device brown-outs, and repetition runs that
    lose too many traces to fold a reference from.
    """

    exit_code = 11


class CaptureQualityError(AcquisitionError):
    """A capture was delivered but failed the health gate.

    Carries the individual threshold violations so retry logic (and the
    operator) can see *why* the capture was rejected.
    """

    exit_code = 12

    def __init__(self, message: str, violations: Optional[list] = None):
        super().__init__(message)
        self.violations = list(violations or [])


class ConvergenceError(ReproError):
    """An iterative fit (IRLS, trimmed refit) failed to converge."""

    exit_code = 13

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class ModelFormatError(ReproError, ValueError):
    """A persisted model file is corrupt, truncated, or unsupported.

    ``path`` names the offending file (when known) and ``reason`` states
    what was wrong with it; both appear in ``str(error)``.
    """

    exit_code = 14

    def __init__(self, reason: str, path: Optional[str] = None):
        self.reason = reason
        self.path = path
        message = f"{path}: {reason}" if path else reason
        super().__init__(message)


class ProbeError(ReproError, ValueError):
    """A microbenchmark probe could not be built or interpreted."""

    exit_code = 15


class ConfigurationError(ReproError, ValueError):
    """Inconsistent bench/trainer configuration (bad method, core kind…)."""

    exit_code = 16


class AnalysisError(ReproError):
    """Static analysis (``python -m tools.analysis``) found violations.

    Raised/exited by the repro-lint gate when unsuppressed findings
    remain, so ``make check`` failures from the analyzer are
    distinguishable from test failures in scripted pipelines.
    """

    exit_code = 17


class CampaignError(ReproError):
    """A supervised campaign could not deliver every required item.

    Raised when quarantined items (per-item retry budget exhausted by
    crashes, timeouts, or worker exceptions) would leave a hole that the
    consumer cannot tolerate — model building and leakage assessments
    need every probe.  ``quarantined`` carries the indices of the lost
    items so operators can rerun or exclude them deliberately.
    """

    exit_code = 18

    def __init__(self, message: str,
                 quarantined: Optional[list] = None):
        super().__init__(message)
        self.quarantined = list(quarantined or [])


class CheckpointError(ReproError):
    """A checkpoint journal is corrupt or inconsistent with the campaign.

    Raised when a journal's header metadata does not match the resuming
    campaign's configuration, when a record fails its checksum, or when
    a non-trailing record cannot be parsed (trailing torn writes are
    tolerated and truncated — they are the expected crash artifact).
    """

    exit_code = 19


class AssemblerError(ReproError, ValueError):
    """Raised for any syntactic or semantic assembly error.

    Lives here (rather than in :mod:`repro.isa.assembler`, which
    re-exports it) so the CLI exit-code table and the static E601
    escape analysis see one authoritative hierarchy.
    """

    exit_code = 20

    def __init__(self, message: str, line_number: int = 0, line: str = ""):
        location = f" (line {line_number}: {line.strip()!r})" if line else ""
        super().__init__(message + location)
        self.line_number = line_number


class TraceCodecError(ReproError, ValueError):
    """Raised when a pickled activity trace does not fit this build's
    latch schema (its latch matrix or occupancy columns have the wrong
    shape); see :func:`repro.uarch.trace._restore`."""

    exit_code = 21


class MitigationError(ReproError, ValueError):
    """Raised when a program cannot be safely balance-transformed.

    Re-exported by :mod:`repro.leakage.mitigation`, its historical home.
    """

    exit_code = 22


def exit_code_for(error: BaseException) -> int:
    """CLI exit code for an exception (1 for non-:class:`ReproError`)."""
    if isinstance(error, ReproError):
        return error.exit_code
    return 1

"""Resilience layer: typed errors, fault injection, health gates, retry.

The bench-to-model pipeline (capture -> health gate -> retry/degrade ->
robust fit -> persist) assumes measurements can be noisy, clipped,
mis-triggered, or lost and that model files can be truncated.  This
package provides the pieces:

* :mod:`repro.robustness.errors` — the ``ReproError`` hierarchy and CLI
  exit codes;
* :mod:`repro.robustness.faults` — seeded composable fault injection for
  the oscilloscope/device path;
* :mod:`repro.robustness.health` — capture quality metrics + thresholds;
* :mod:`repro.robustness.retry` — bounded retry, repetition escalation
  and the degradation ladder;
* :mod:`repro.robustness.checkpoint` — the crash-safe campaign journal
  behind ``--checkpoint-dir``/``--resume``.

See ``docs/robustness.md`` for the fault taxonomy, the degradation
ladder, and campaign supervision/resume end to end.
"""

from .checkpoint import (JOURNAL_SCHEMA, CheckpointJournal, content_key,
                         journal_summary)
from .errors import (AcquisitionError, AnalysisError, AssemblerError,
                     CampaignError, CaptureQualityError, CheckpointError,
                     ConfigurationError, ConvergenceError, MitigationError,
                     ModelFormatError, ProbeError, ReproError,
                     TraceCodecError, exit_code_for)
from .faults import FAULT_KINDS, FaultInjector, FaultPlan
from .health import (CaptureQuality, HealthPolicy, RepetitionScreen,
                     assess_capture, clipping_ratio, screen_repetitions)
from .retry import (AcquisitionStats, CaptureSupervisor, ProbeOutcome,
                    RetryPolicy)

__all__ = [
    "AcquisitionError",
    "AcquisitionStats",
    "AnalysisError",
    "AssemblerError",
    "CampaignError",
    "CaptureQuality",
    "CaptureQualityError",
    "CaptureSupervisor",
    "CheckpointError",
    "CheckpointJournal",
    "ConfigurationError",
    "ConvergenceError",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "HealthPolicy",
    "JOURNAL_SCHEMA",
    "MitigationError",
    "ModelFormatError",
    "ProbeError",
    "ProbeOutcome",
    "RepetitionScreen",
    "ReproError",
    "RetryPolicy",
    "TraceCodecError",
    "assess_capture",
    "clipping_ratio",
    "content_key",
    "journal_summary",
    "exit_code_for",
    "screen_repetitions",
]

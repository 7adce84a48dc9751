"""The one instrumentation layer: spans, metrics, run manifests.

Every timing and counter in the program goes through this package
(see ``docs/observability.md``):

* :mod:`repro.observability.tracer` — the sanctioned :func:`monotonic`
  clock and a context-manager span tracer on it, with a spool/merge
  protocol that carries worker spans and metric deltas back across
  :class:`repro.parallel.SupervisedPool` process boundaries;
* :mod:`repro.observability.metrics` — deterministic counters, gauges,
  and fixed-edge histograms;
* :mod:`repro.observability.manifest` / ``report`` — per-run JSONL
  events plus one atomic ``manifest.json`` (schema ``repro-manifest/1``)
  and the Markdown renderer behind ``repro report`` and ``--profile``.

Everything is off by default: without ``--trace-dir`` or ``--profile``
(or an explicit :func:`start_run`) every hook is a no-op and runs are
bit-identical to an un-instrumented build.
"""

from .manifest import (MANIFEST_SCHEMA, CampaignRecord, RunRecorder,
                       config_hash, current_manifest_path, finish_run,
                       get_recorder, record_campaign, start_run)
from .metrics import (DEFAULT_TIME_EDGES, Histogram, MetricsRegistry,
                      disable_metrics, enable_metrics, get_metrics)
from .report import (instrumentation_tables, render_report,
                     validate_manifest)
from .tracer import (Span, Tracer, create_spool, disable_tracing,
                     enable_tracing, flush_worker_records, get_tracer,
                     merge_spool, monotonic, reset_flush_baseline,
                     set_spool_root)

__all__ = [
    "CampaignRecord",
    "DEFAULT_TIME_EDGES",
    "Histogram",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "RunRecorder",
    "Span",
    "Tracer",
    "config_hash",
    "create_spool",
    "current_manifest_path",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "finish_run",
    "flush_worker_records",
    "get_metrics",
    "get_recorder",
    "get_tracer",
    "instrumentation_tables",
    "merge_spool",
    "monotonic",
    "record_campaign",
    "render_report",
    "reset_flush_baseline",
    "set_spool_root",
    "start_run",
    "validate_manifest",
]

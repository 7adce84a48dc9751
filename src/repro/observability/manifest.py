"""Run manifests: a JSONL event stream plus one atomic ``manifest.json``.

A *run* is one CLI invocation (or one test/bench driver) that may
execute several campaigns.  While a run recorder is active it appends
schema-tagged events to ``events.jsonl`` (sequence-numbered, with
elapsed monotonic seconds — never wall-clock time) and, on
:func:`finish_run`, writes a single ``manifest.json`` atomically
(tmp file + ``os.replace``) under schema ``repro-manifest/1``:
package version, per-campaign config hashes and seeds, worker counts,
trace-cache hit/miss totals, item-outcome ledger summaries, checkpoint
linkage, the metrics snapshot, and a span digest.

Instrumented code never talks to the recorder directly; it wraps
campaigns in :func:`record_campaign`, which yields a no-op handle when
no recorder is active — that guarantee is what keeps runs without
``--trace-dir`` bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager, suppress
from typing import Any, Dict, Iterator, List, Optional

from ..robustness import ConfigurationError
from .metrics import disable_metrics, enable_metrics, get_metrics
from .tracer import (disable_tracing, enable_tracing, get_tracer,
                     monotonic, set_spool_root)

#: Version tag stamped on both the manifest and the event stream.
MANIFEST_SCHEMA = "repro-manifest/1"
EVENTS_FILENAME = "events.jsonl"
MANIFEST_FILENAME = "manifest.json"


def config_hash(meta: Dict[str, Any]) -> str:
    """SHA-256 over the sorted-JSON form of a campaign's config meta,
    so identical configurations hash identically across runs."""
    digest = hashlib.sha256()
    digest.update(json.dumps(meta, sort_keys=True, default=str)
                  .encode("utf-8"))
    return digest.hexdigest()


class CampaignRecord:
    """Mutable per-campaign record handed to instrumented code."""

    def __init__(self, name: str, meta: Optional[Dict[str, Any]] = None):
        self.name = name
        self.meta = dict(meta or {})
        self.fields: Dict[str, Any] = {}
        self.seconds = 0.0

    def ledger(self, ledger: Any) -> None:
        """Attach a :class:`repro.parallel.CampaignLedger` summary."""
        counts = dict(ledger.counts())
        self.fields["items"] = sum(counts.values())
        self.fields["ledger"] = counts
        self.fields["pool_rebuilds"] = int(ledger.pool_rebuilds)
        self.fields["resumed"] = len(ledger.resumed)
        self.fields["complete"] = bool(ledger.complete)

    def checkpoint(self, path: Optional[str]) -> None:
        """Link the checkpoint journal backing this campaign, if any."""
        if path:
            self.fields["checkpoint"] = str(path)

    def set(self, key: str, value: Any) -> None:
        """Record an arbitrary campaign-level field."""
        self.fields[key] = value

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form embedded in the manifest."""
        document: Dict[str, Any] = {
            "name": self.name,
            "meta": self.meta,
            "config_hash": config_hash(self.meta),
            "seconds": self.seconds,
        }
        document.update(self.fields)
        return document


class _NullCampaign:
    """No-op recording handle used when no run recorder is active."""

    def ledger(self, ledger: Any) -> None:
        """Discard (no recorder active)."""

    def checkpoint(self, path: Optional[str]) -> None:
        """Discard (no recorder active)."""

    def set(self, key: str, value: Any) -> None:
        """Discard (no recorder active)."""


_NULL_CAMPAIGN = _NullCampaign()


class RunRecorder:
    """Owns one run's event stream and final manifest.

    Prefer the module-level :func:`start_run`/:func:`finish_run` pair,
    which also toggle the tracer, the metrics registry, and the worker
    spool root; construct directly only in tests.
    """

    def __init__(self, trace_dir: str, manifest: bool = True,
                 command: Optional[str] = None):
        self.trace_dir = str(trace_dir)
        self.manifest = bool(manifest)
        self.command = command
        self.campaigns: List[CampaignRecord] = []
        self._seq = 0
        self._origin = monotonic()
        os.makedirs(self.trace_dir, exist_ok=True)
        self.events_path = os.path.join(self.trace_dir, EVENTS_FILENAME)
        self.manifest_path = os.path.join(self.trace_dir,
                                          MANIFEST_FILENAME)
        self._events = open(self.events_path, "w", encoding="utf-8")
        self.event("start", schema=MANIFEST_SCHEMA, command=command)

    def event(self, kind: str, **fields: Any) -> None:
        """Append one sequence-numbered event line (flushed, not
        fsynced: events are a trace, not crash-recovery state)."""
        if self._events is None:
            return
        record: Dict[str, Any] = {
            "seq": self._seq,
            "elapsed": round(monotonic() - self._origin, 6),
            "event": kind,
        }
        record.update(fields)
        self._seq += 1
        self._events.write(json.dumps(record, sort_keys=True,
                                      default=str) + "\n")
        self._events.flush()

    @contextmanager
    def campaign(self, name: str,
                 meta: Optional[Dict[str, Any]] = None
                 ) -> Iterator[CampaignRecord]:
        """Record one campaign: start/end events plus a
        :class:`CampaignRecord` collected into the manifest."""
        record = CampaignRecord(name, meta)
        self.event("campaign_start", campaign=name, meta=record.meta)
        start = monotonic()
        try:
            yield record
        finally:
            record.seconds = round(monotonic() - start, 6)
            self.campaigns.append(record)
            self.event("campaign_end", campaign=name,
                       seconds=record.seconds)

    def build_manifest(self) -> Dict[str, Any]:
        """Assemble the ``repro-manifest/1`` document (pure; no I/O)."""
        import repro  # noqa: deferred to dodge package-init cycles
        from ..core.trace_cache import get_trace_cache
        tracer = get_tracer()
        registry = get_metrics()
        seeds = sorted({record.meta["seed"]
                        for record in self.campaigns
                        if "seed" in record.meta})
        worker_counts = [int(record.meta["workers"])
                         for record in self.campaigns
                         if "workers" in record.meta]
        by_name = {name: {"calls": int(entry["calls"]),
                          "seconds": round(entry["seconds"], 6)}
                   for name, entry in tracer.by_name().items()}
        return {
            "schema": MANIFEST_SCHEMA,
            "version": getattr(repro, "__version__", "unknown"),
            "command": self.command,
            "seeds": seeds,
            "workers": max(worker_counts) if worker_counts else None,
            "campaigns": [record.to_dict()
                          for record in self.campaigns],
            "cache": get_trace_cache().stats.as_dict(),
            "metrics": registry.to_dict(),
            "spans": {
                "count": len(tracer.spans),
                "total_seconds": round(sum(span.seconds for span
                                           in tracer.spans), 6),
                "by_name": by_name,
            },
            "events": EVENTS_FILENAME,
        }

    def finalize(self) -> Optional[str]:
        """Close the event stream and atomically write the manifest.

        Returns the manifest path, or ``None`` when manifest writing
        was disabled (``--no-manifest``).
        """
        self.event("finish", campaigns=len(self.campaigns))
        if self._events is not None:
            self._events.close()
            self._events = None
        if not self.manifest:
            return None
        document = self.build_manifest()
        tmp_path = self.manifest_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True,
                      default=str)
            handle.write("\n")
        os.replace(tmp_path, self.manifest_path)
        return self.manifest_path


_RECORDER: Optional[RunRecorder] = None


def get_recorder() -> Optional[RunRecorder]:
    """The active run recorder, or ``None`` outside a recorded run."""
    return _RECORDER


def current_manifest_path() -> Optional[str]:
    """Where the active run's manifest will land, or ``None``."""
    if _RECORDER is None or not _RECORDER.manifest:
        return None
    return _RECORDER.manifest_path


def start_run(trace_dir: str, manifest: bool = True,
              command: Optional[str] = None) -> RunRecorder:
    """Open a recorded run: create ``trace_dir``, start the event
    stream, enable tracing + metrics, and anchor worker spools under
    ``trace_dir/spool``.  One run may be active at a time."""
    global _RECORDER
    if _RECORDER is not None:
        raise ConfigurationError(
            "a run recorder is already active; call finish_run() first")
    recorder = RunRecorder(trace_dir, manifest=manifest, command=command)
    enable_tracing()
    enable_metrics()
    spool_root = os.path.join(recorder.trace_dir, "spool")
    os.makedirs(spool_root, exist_ok=True)
    set_spool_root(spool_root)
    _RECORDER = recorder
    return recorder


def finish_run() -> Optional[str]:
    """Finalize the active run (if any): write the manifest, disable
    tracing + metrics, and return the manifest path or ``None``."""
    global _RECORDER
    if _RECORDER is None:
        return None
    recorder = _RECORDER
    _RECORDER = None
    path = recorder.finalize()
    with suppress(OSError):
        os.rmdir(os.path.join(recorder.trace_dir, "spool"))
    set_spool_root(None)
    disable_tracing()
    disable_metrics()
    return path


@contextmanager
def record_campaign(name: str,
                    meta: Optional[Dict[str, Any]] = None
                    ) -> Iterator[Any]:
    """Record a campaign into the active run recorder, if any.

    This is the one hook instrumented campaign code calls.  Without an
    active recorder it yields a shared no-op handle, adding only a
    ``None`` check to the fault-free path — runs without
    ``--trace-dir`` stay bit-identical.
    """
    recorder = _RECORDER
    if recorder is None:
        yield _NULL_CAMPAIGN
        return
    with recorder.campaign(name, meta) as record:
        yield record

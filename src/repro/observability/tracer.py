"""Lightweight span tracer with cross-process spool/merge support.

A *span* is one finished, timed region: a name, its slash-joined
nesting path, a start offset and duration on the monotonic clock
(:func:`monotonic` — never a wall clock), optional
attributes, and the recording pid.  Spans are recorded through the
context-manager :meth:`Tracer.span`; while the tracer is disabled (the
default) the context manager is a no-op, so un-instrumented runs stay
bit-identical.

Working inside :class:`repro.parallel.SupervisedPool` workers: fork
gives every worker a copy of the enabled tracer and metrics registry,
but their recordings would die with the process.  The pool trampoline
therefore calls :func:`flush_worker_records` after every item, which
appends the worker's *unflushed* spans and metric deltas to a
per-process JSONL spool file; after the campaign the parent calls
:func:`merge_spool` to fold every worker's records back into its own
tracer and registry.  The flush baseline is reset at worker start
(:func:`reset_flush_baseline`) so spans inherited from the parent at
fork time — including after a mid-campaign pool rebuild — are never
double-counted.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from .metrics import get_metrics


def monotonic() -> float:
    """High-resolution monotonic timestamp (seconds).

    The one sanctioned clock read for instrumented code outside this
    module: simulation-core files must route timing through here (or
    :meth:`Tracer.span`) so the ``D102`` determinism lint can guarantee
    no other time dependence exists in the core.  Durations derived
    from it may only feed spans and benchmark reports — never model
    outputs.
    """
    return time.perf_counter()


@dataclass
class Span:
    """One finished, timed region (see module docstring)."""

    name: str
    path: str
    start: float
    seconds: float
    attributes: Dict[str, object] = field(default_factory=dict)
    pid: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form used by the spool files and the manifest."""
        return {"name": self.name, "path": self.path,
                "start": self.start, "seconds": self.seconds,
                "attributes": dict(self.attributes), "pid": self.pid}


class Tracer:
    """Collects finished spans; nesting is tracked per process.

    Spans are appended on *exit*, so ``spans`` holds only completed
    regions in completion order (children before their parent).
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._stack: List[str] = []
        self._origin = 0.0

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[None]:
        """Time the enclosed block as a span named ``name``.

        Keyword arguments become span attributes.  No-op (beyond one
        attribute check) while the tracer is disabled.
        """
        if not self.enabled:
            yield
            return
        self._stack.append(name)
        path = "/".join(self._stack)
        start = monotonic()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append(Span(
                name=name, path=path, start=start - self._origin,
                seconds=monotonic() - start,
                attributes=dict(attributes), pid=os.getpid()))

    def merge(self, records: Iterable[Dict[str, object]]) -> None:
        """Fold span dicts (from a worker spool) into this tracer."""
        for record in records:
            self.spans.append(Span(
                name=str(record.get("name", "")),
                path=str(record.get("path", "")),
                start=float(record.get("start", 0.0)),
                seconds=float(record.get("seconds", 0.0)),
                attributes=dict(record.get("attributes", {})),
                pid=int(record.get("pid", 0))))

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per-name call counts and summed seconds, sorted by name."""
        summary: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            entry = summary.setdefault(span.name,
                                       {"calls": 0, "seconds": 0.0})
            entry["calls"] += 1
            entry["seconds"] += span.seconds
        return {name: summary[name] for name in sorted(summary)}

    def reset(self) -> None:
        """Drop recorded spans and restart the relative time origin."""
        self.spans = []
        self._stack = []
        self._origin = monotonic()


_GLOBAL = Tracer()

#: Directory under which per-campaign spool directories are created;
#: ``None`` (the default) falls back to the system temp directory.
_SPOOL_ROOT: Optional[str] = None

#: Per-process high-water marks for :func:`flush_worker_records`.
_FLUSHED: Dict[str, object] = {"spans": 0, "metrics": {}}


def get_tracer() -> Tracer:
    """The process-wide tracer (workers inherit it across fork)."""
    return _GLOBAL


def enable_tracing() -> Tracer:
    """Enable the global tracer; a fresh enable restarts its origin."""
    if not _GLOBAL.enabled:
        _GLOBAL.reset()
        _GLOBAL.enabled = True
    return _GLOBAL


def disable_tracing() -> None:
    """Stop recording spans (already-recorded spans are kept)."""
    _GLOBAL.enabled = False


def set_spool_root(path: Optional[str]) -> None:
    """Anchor worker spool directories under ``path`` (``None`` resets
    to the system temp directory)."""
    global _SPOOL_ROOT
    _SPOOL_ROOT = path


def create_spool() -> Optional[str]:
    """A fresh spool directory for one pooled campaign, or ``None``
    when neither tracing nor metrics are enabled (so the pool skips
    spooling entirely)."""
    if not (_GLOBAL.enabled or get_metrics().enabled):
        return None
    return tempfile.mkdtemp(prefix="spool-", dir=_SPOOL_ROOT)


def reset_flush_baseline() -> None:
    """Mark everything recorded so far as already flushed.

    Called from the worker initializer: spans and metrics inherited
    from the parent at fork time belong to the parent and must not be
    re-spooled by the child.
    """
    _FLUSHED["spans"] = len(_GLOBAL.spans)
    _FLUSHED["metrics"] = get_metrics().snapshot()


def flush_worker_records(spool: str, index: int) -> None:
    """Append this process's unflushed spans and metric deltas to its
    per-pid spool file (one JSON line per flush).

    Called from the pool trampoline after every item; quiet items (no
    new spans, no metric changes) write nothing.
    """
    tracer = _GLOBAL
    registry = get_metrics()
    mark = int(_FLUSHED["spans"])
    spans = [span.to_dict() for span in tracer.spans[mark:]]
    _FLUSHED["spans"] = len(tracer.spans)
    metrics = registry.delta(_FLUSHED["metrics"])
    _FLUSHED["metrics"] = registry.snapshot()
    if not spans and not metrics:
        return
    record = {"pid": os.getpid(), "index": index,
              "spans": spans, "metrics": metrics}
    path = os.path.join(spool, f"records-{os.getpid()}.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def merge_spool(spool: Optional[str]) -> None:
    """Fold every worker spool file back into the parent tracer and
    metrics registry, then remove the spool directory.

    Tolerates a torn final line (a worker killed mid-write): the
    partial record is skipped, matching the checkpoint journal's
    torn-tail policy.
    """
    if spool is None:
        return
    tracer = _GLOBAL
    registry = get_metrics()
    for name in sorted(os.listdir(spool)):
        path = os.path.join(spool, name)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                tracer.merge(record.get("spans", []))
                registry.merge(record.get("metrics", {}))
        os.unlink(path)
    with suppress(OSError):
        os.rmdir(spool)

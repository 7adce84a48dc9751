"""Lightweight wall-time profiling hooks for the simulation engine.

Campaign-scale workloads (model-building sweeps, TVLA/SAVAT leakage
assessments, re-simulation fan-outs) need their perf trajectory tracked
across PRs.  This module provides a near-zero-overhead :class:`Profiler`
that accumulates per-phase wall time and call counters, can be merged
across worker processes, and serializes to the machine-readable
``repro-bench/1`` schema the benchmarks under ``benchmarks/`` write.

Design constraints:

* **disabled by default** — every hook first checks a plain boolean, so
  instrumented hot paths pay one attribute load when profiling is off;
* **mergeable** — worker processes return their profiler as a dict and
  the parent folds it in (:meth:`Profiler.merge`), so parallel campaigns
  still produce one coherent profile;
* **machine readable** — :func:`write_bench_json` emits a stable schema
  (``schema``, ``phases``, ``counters``, arbitrary metadata) consumed by
  the perf benchmarks in ``benchmarks/``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

__all__ = ["PhaseStat", "Profiler", "get_profiler", "enable_profiling",
           "disable_profiling", "monotonic", "set_counter_sink",
           "write_bench_json", "BENCH_SCHEMA", "SUPERVISION_COUNTERS",
           "supervision_counts"]


def monotonic() -> float:
    """High-resolution monotonic timestamp (seconds).

    The one sanctioned clock read for instrumented code outside this
    module: simulation-core files must route timing through here (or
    :meth:`Profiler.phase`) so the ``D102`` determinism lint can
    guarantee no other time dependence exists in the core.  Durations
    derived from it may only feed profiling/benchmark reports — never
    model outputs.
    """
    return time.perf_counter()

BENCH_SCHEMA = "repro-bench/1"
"""Schema tag stamped into every ``BENCH_*.json`` report."""

SUPERVISION_COUNTERS = (
    "supervise.retries",
    "supervise.timeouts",
    "supervise.crashes",
    "supervise.failures",
    "supervise.rebuilds",
    "supervise.quarantined",
    "supervise.resumed",
    "supervise.checkpointed",
)
"""Counter names the supervised campaign runtime increments.

``retries`` counts requeued attempts, ``timeouts``/``crashes``/
``failures`` classify charged attempt failures (deadline, dead worker,
worker exception), ``rebuilds`` counts pool teardowns forced by hung
workers or broken pipes, ``quarantined`` counts items that exhausted
their retry budget, ``resumed`` counts items served from a checkpoint
journal, and ``checkpointed`` counts successful items appended to one.
"""


_COUNTER_SINK = None
"""Optional ``(name, increment)`` callable mirroring every counter bump.

The compatibility shim behind :mod:`repro.observability.metrics`: when
the metrics registry is enabled it installs itself here, so the legacy
``Profiler.count`` call sites double as metric emitters — even while
the profiler itself is disabled.  ``None`` (the default) costs the hot
path one global load.
"""


def set_counter_sink(sink) -> None:
    """Install (or clear, with ``None``) the counter mirror callable."""
    global _COUNTER_SINK
    _COUNTER_SINK = sink


def supervision_counts(profiler: Optional["Profiler"] = None
                       ) -> Dict[str, int]:
    """Supervision counters as a zero-filled, fixed-order table.

    Reads the given (default: global) profiler's counters so benchmark
    reports and CLI summaries can embed the supervision story of a run
    without caring which counters happened to fire.
    """
    source = profiler if profiler is not None else get_profiler()
    return {name: int(source.counters.get(name, 0))
            for name in SUPERVISION_COUNTERS}


@dataclass
class PhaseStat:
    """Accumulated wall time and call count for one named phase."""

    seconds: float = 0.0
    calls: int = 0

    def add(self, seconds: float, calls: int = 1) -> None:
        """Fold ``seconds`` of wall time (over ``calls`` calls) in."""
        self.seconds += seconds
        self.calls += calls


@dataclass
class Profiler:
    """Per-phase wall-time and counter accumulator.

    Phases are named hierarchically with dots (``train.capture``,
    ``batch.reconstruct``); counters are plain monotonically increasing
    integers (``captures``, ``kernel_cache_hits``).  All methods are
    no-ops while ``enabled`` is False, so hooks can stay in the hot path
    permanently.
    """

    enabled: bool = False
    phases: Dict[str, PhaseStat] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under phase ``name`` (no-op if disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase(name, time.perf_counter() - start)

    def add_phase(self, name: str, seconds: float, calls: int = 1) -> None:
        """Directly record ``seconds`` of wall time under ``name``."""
        if not self.enabled:
            return
        self.phases.setdefault(name, PhaseStat()).add(seconds, calls)

    def count(self, name: str, increment: int = 1) -> None:
        """Bump counter ``name`` by ``increment`` (no-op if disabled).

        Always mirrored to the installed counter sink (the metrics
        registry's compatibility shim) before the enabled check, so
        metrics collection does not require ``--profile``.
        """
        if _COUNTER_SINK is not None:
            _COUNTER_SINK(name, increment)
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + increment

    # ------------------------------------------------------------------
    # aggregation / reporting
    # ------------------------------------------------------------------
    def merge(self, other: "Profiler | dict") -> None:
        """Fold another profiler (or its :meth:`to_dict`) into this one.

        Used to aggregate worker-process profiles into the parent's; the
        merge always applies, even when this profiler is disabled, so a
        disabled parent can still collect an explicit child profile.
        """
        if isinstance(other, Profiler):
            other = other.to_dict()
        for name, stat in other.get("phases", {}).items():
            self.phases.setdefault(name, PhaseStat()).add(
                float(stat["seconds"]), int(stat["calls"]))
        for name, value in other.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + int(value)

    def to_dict(self) -> dict:
        """JSON-ready snapshot of all phases and counters."""
        return {
            "phases": {name: {"seconds": stat.seconds, "calls": stat.calls}
                       for name, stat in sorted(self.phases.items())},
            "counters": dict(sorted(self.counters.items())),
        }

    def summary(self) -> str:
        """Human-readable table (printed by the CLI's ``--profile``)."""
        if not self.phases and not self.counters:
            return "profile: no phases recorded"
        lines = ["phase                                seconds      calls"]
        for name, stat in sorted(self.phases.items(),
                                 key=lambda item: -item[1].seconds):
            lines.append(f"{name:<36s} {stat.seconds:8.3f} {stat.calls:10d}")
        if self.counters:
            lines.append("counters: " + ", ".join(
                f"{name}={value}"
                for name, value in sorted(self.counters.items())))
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop all accumulated phases and counters."""
        self.phases.clear()
        self.counters.clear()


_GLOBAL = Profiler(enabled=False)


def get_profiler() -> Profiler:
    """The process-global profiler the built-in hooks report to."""
    return _GLOBAL


def enable_profiling() -> Profiler:
    """Turn the global profiler on (the CLI's ``--profile``)."""
    _GLOBAL.enabled = True
    return _GLOBAL


def disable_profiling() -> Profiler:
    """Turn the global profiler off and return it (tests clean up with
    this so one test's phases never leak into another's)."""
    _GLOBAL.enabled = False
    return _GLOBAL


def write_bench_json(path: str, metadata: Optional[dict] = None,
                     profiler: Optional[Profiler] = None) -> dict:
    """Write the machine-readable benchmark report (a ``BENCH_*.json`` file).

    ``metadata`` carries the experiment-specific numbers (program count,
    worker counts, wall times, speedup, max abs diff); the profiler's
    phases and counters ride along.  Returns the written document.
    """
    profiler = profiler if profiler is not None else _GLOBAL
    document = {"schema": BENCH_SCHEMA}
    document.update(metadata or {})
    document.update(profiler.to_dict())
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    os.replace(tmp_path, path)
    return document

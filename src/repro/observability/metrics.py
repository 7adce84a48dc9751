"""Deterministic metrics registry: counters, gauges, fixed-edge histograms.

The registry is the one sink for run-level quantitative telemetry:
every counter the program bumps (``supervise.*``, ``trace_cache.*``,
``batch.*``, ...) goes through :meth:`MetricsRegistry.increment`.

Histograms use *fixed* bucket edges chosen at registration time so the
exported bucket counts are deterministic across runs and machines: the
same sequence of observations always lands in the same buckets,
regardless of timing jitter in unrelated code.

Nothing here reads a wall clock; values are supplied by callers (who
use :func:`repro.observability.monotonic` for durations).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence

from ..robustness import ConfigurationError

#: Default histogram bucket edges for durations in seconds: a coarse
#: 1-2-5 ladder from 1 ms to 10 s.  Fixed edges keep exported bucket
#: counts deterministic run-to-run.
DEFAULT_TIME_EDGES = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
                      0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)


class Histogram:
    """Histogram with fixed, immutable bucket edges.

    ``counts`` has ``len(edges) + 1`` entries: observations are binned
    with ``bisect_right``, so ``counts[i]`` holds values in
    ``(edges[i-1], edges[i]]`` and the last bucket is overflow.
    """

    def __init__(self, edges: Sequence[float] = DEFAULT_TIME_EDGES):
        self.edges = tuple(float(edge) for edge in edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation into its (fixed) bucket."""
        value = float(value)
        self.counts[bisect.bisect_right(self.edges, value)] += 1
        self.total += value
        self.count += 1

    def add_counts(self, counts: Sequence[int], count: int,
                   total: float) -> None:
        """Fold pre-binned bucket counts (from a worker delta) in."""
        for position, value in enumerate(counts):
            self.counts[position] += int(value)
        self.count += int(count)
        self.total += float(total)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form: edges, bucket counts, count, total."""
        return {"edges": list(self.edges), "counts": list(self.counts),
                "count": self.count, "total": self.total}


class MetricsRegistry:
    """Named counters, gauges, and histograms with merge/delta support.

    Recording methods are no-ops while ``enabled`` is ``False`` (the
    default), which keeps un-instrumented runs bit-identical and the
    disabled-path cost to one attribute check.  ``merge``/``delta``
    work regardless of the enabled flag so a parent process can fold
    worker snapshots in after disabling collection.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording ----------------------------------------------------

    def increment(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float,
                edges: Sequence[float] = DEFAULT_TIME_EDGES) -> None:
        """Record ``value`` into histogram ``name``.

        The edges are fixed on first use; later calls must agree.
        """
        if not self.enabled:
            return
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = Histogram(edges)
            self.histograms[name] = histogram
        elif histogram.edges != tuple(float(edge) for edge in edges):
            raise ConfigurationError(
                f"histogram {name!r} re-registered with different edges")
        histogram.observe(value)

    # -- export / transport -------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot with deterministically sorted keys."""
        return {
            "counters": {name: self.counters[name]
                         for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name]
                       for name in sorted(self.gauges)},
            "histograms": {name: self.histograms[name].as_dict()
                           for name in sorted(self.histograms)},
        }

    def snapshot(self) -> Dict[str, object]:
        """Alias of :meth:`to_dict`, named for use as a delta baseline."""
        return self.to_dict()

    def delta(self, baseline: Dict[str, object]) -> Dict[str, object]:
        """Changes since ``baseline`` (a prior :meth:`snapshot`).

        Counters and histogram buckets are differenced; gauges report
        their current value (last write wins on merge).  Empty sections
        are omitted so quiet items spool nothing.
        """
        result: Dict[str, object] = {}
        base_counters = baseline.get("counters", {})
        counters = {}
        for name in sorted(self.counters):
            diff = self.counters[name] - base_counters.get(name, 0)
            if diff:
                counters[name] = diff
        if counters:
            result["counters"] = counters
        if self.gauges:
            result["gauges"] = {name: self.gauges[name]
                                for name in sorted(self.gauges)}
        base_histograms = baseline.get("histograms", {})
        histograms = {}
        for name in sorted(self.histograms):
            current = self.histograms[name].as_dict()
            prior = base_histograms.get(name)
            if prior and list(prior["edges"]) == current["edges"]:
                counts = [a - b for a, b in
                          zip(current["counts"], prior["counts"])]
                if not any(counts):
                    continue
                histograms[name] = {
                    "edges": current["edges"], "counts": counts,
                    "count": current["count"] - prior["count"],
                    "total": current["total"] - prior["total"]}
            else:
                histograms[name] = current
        if histograms:
            result["histograms"] = histograms
        return result

    def merge(self, data: Dict[str, object]) -> None:
        """Fold a :meth:`to_dict`/:meth:`delta` document into this
        registry (counters and buckets sum; gauges take the incoming
        value)."""
        for name, value in sorted(data.get("counters", {}).items()):
            self.counters[name] = self.counters.get(name, 0) + int(value)
        for name, value in sorted(data.get("gauges", {}).items()):
            self.gauges[name] = float(value)
        for name, payload in sorted(data.get("histograms", {}).items()):
            edges = tuple(float(edge) for edge in payload["edges"])
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = Histogram(edges)
                self.histograms[name] = histogram
            elif histogram.edges != edges:
                raise ConfigurationError(
                    f"histogram {name!r} merged with different edges")
            histogram.add_counts(payload["counts"], payload["count"],
                                 payload["total"])

    def reset(self) -> None:
        """Drop all recorded values (the enabled flag is unchanged)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


_GLOBAL = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry (workers inherit it across fork)."""
    return _GLOBAL


def enable_metrics() -> MetricsRegistry:
    """Enable the global registry and return it."""
    _GLOBAL.enabled = True
    return _GLOBAL


def disable_metrics() -> None:
    """Disable collection.

    Recorded values are kept so callers can export after disabling;
    use :meth:`MetricsRegistry.reset` to clear them.
    """
    _GLOBAL.enabled = False

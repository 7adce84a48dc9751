"""Streaming (one-pass) statistics for leakage assessments.

TVLA's Welch t-test only needs three per-sample moments of each trace
group — count, mean, and the sum of squared deviations.  This module
folds traces into Welford accumulators as they arrive, so a
fixed-vs-random assessment runs in O(samples) memory regardless of
trace count.  It is the one t-test engine: :func:`~repro.leakage.tvla.tvla`
folds its trace groups through :class:`StreamingTTest`, and
:func:`collect_streaming_tvla` folds each trace as the campaign
produces it.

Every trace is evaluated over the minimum length seen across *both*
groups — per-sample moments are prefix-stable, so a shorter late
arrival simply truncates the accumulated state.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..observability import record_campaign
from ..parallel import resolve_workers, supervised_map
from ..robustness.errors import CampaignError, ConfigurationError
from .tvla import (TVLA_THRESHOLD, TVLAResult, collect_tvla_traces, tvla,
                   tvla_inputs)

__all__ = ["WelfordAccumulator", "StreamingTTest",
           "collect_streaming_tvla"]


class WelfordAccumulator:
    """One-pass per-sample count/mean/M2 over a stream of traces.

    Welford's update is numerically stable (no catastrophic
    mean-of-squares cancellation) and needs only the running state —
    three O(samples) arrays — to recover the mean, the unbiased
    variance, and everything a Welch t-test derives from them.

    Accumulators over differing trace lengths truncate to the shortest
    length seen: the retained prefix of the running state is exactly
    what accumulating pre-truncated traces would have produced.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean: Optional[np.ndarray] = None
        self._m2: Optional[np.ndarray] = None

    @property
    def length(self) -> Optional[int]:
        """Current per-trace sample length (None before the first add)."""
        return None if self._mean is None else len(self._mean)

    def truncate(self, length: int) -> None:
        """Restrict the accumulated state to the first ``length`` samples."""
        if self._mean is not None and length < len(self._mean):
            self._mean = self._mean[:length]
            self._m2 = self._m2[:length]

    def add(self, trace: np.ndarray) -> None:
        """Fold one trace into the running moments."""
        trace = np.asarray(trace, dtype=float).ravel()
        if self._mean is None:
            self.count = 1
            self._mean = trace.copy()
            self._m2 = np.zeros_like(self._mean)
            return
        self.truncate(len(trace))
        trace = trace[:len(self._mean)]
        self.count += 1
        delta = trace - self._mean
        self._mean = self._mean + delta / self.count
        self._m2 = self._m2 + delta * (trace - self._mean)

    @property
    def mean(self) -> np.ndarray:
        """Per-sample running mean (empty array before the first add)."""
        if self._mean is None:
            return np.zeros(0)
        return self._mean

    def variance(self, ddof: int = 1) -> np.ndarray:
        """Per-sample variance of the accumulated traces."""
        if self._mean is None:
            return np.zeros(0)
        if self.count <= ddof:
            return np.full_like(self._m2, np.nan)
        return self._m2 / (self.count - ddof)


class StreamingTTest:
    """Streaming fixed-vs-random Welch t-test (TVLA in O(samples)).

    Feed traces with :meth:`add_fixed` / :meth:`add_random` in any
    order; both accumulators share one minimum-length truncation, so
    :meth:`result` does not depend on arrival order.
    """

    def __init__(self) -> None:
        self.fixed = WelfordAccumulator()
        self.random = WelfordAccumulator()

    def _align(self) -> int:
        """Truncate both groups to the shared minimum length."""
        lengths = [acc.length for acc in (self.fixed, self.random)
                   if acc.length is not None]
        if not lengths:
            return 0
        length = min(lengths)
        self.fixed.truncate(length)
        self.random.truncate(length)
        return length

    def add_fixed(self, trace: np.ndarray) -> None:
        """Fold one fixed-input trace."""
        self.fixed.add(trace)
        self._align()

    def add_random(self, trace: np.ndarray) -> None:
        """Fold one random-input trace."""
        self.random.add(trace)
        self._align()

    def t_values(self) -> np.ndarray:
        """Per-sample Welch t-statistics of the accumulated state.

        Zero-variance sample points yield t = 0, and fewer than two
        traces in either group is a
        :class:`~repro.robustness.errors.ConfigurationError` (a
        ``ValueError`` by inheritance).
        """
        if self.fixed.count < 2 or self.random.count < 2:
            raise ConfigurationError("each group needs at least two traces")
        length = self._align()
        var_a = self.fixed.variance()[:length] / self.fixed.count
        var_b = self.random.variance()[:length] / self.random.count
        denominator = np.sqrt(var_a + var_b)
        difference = self.fixed.mean[:length] - self.random.mean[:length]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denominator > 0,
                            difference / denominator, 0.0)

    def result(self, threshold: float = TVLA_THRESHOLD) -> TVLAResult:
        """The accumulated assessment as a standard :class:`TVLAResult`.

        A group without traces raises a typed
        :class:`~repro.robustness.errors.CampaignError` naming it.
        """
        for name, group in (("fixed", self.fixed),
                            ("random", self.random)):
            if group.count == 0:
                raise CampaignError(
                    f"TVLA needs traces in both groups: the {name} "
                    f"trace group is empty")
        return TVLAResult(t_values=self.t_values(), threshold=threshold)


def _fold_trace(trace_source: Callable[[Sequence[int]], np.ndarray],
                accumulator: StreamingTTest,
                item: Tuple[bool, Sequence[int]]) -> None:
    """Run one ``(fixed?, input)`` item and fold its trace, keeping
    nothing."""
    fixed, value = item
    trace = trace_source(value)
    if fixed:
        accumulator.add_fixed(trace)
    else:
        accumulator.add_random(trace)


def collect_streaming_tvla(
        trace_source: Callable[[Sequence[int]], np.ndarray],
        fixed_input: Sequence[int],
        num_traces: int,
        rng: np.random.Generator,
        input_length: Optional[int] = None,
        threshold: float = TVLA_THRESHOLD,
        workers: int = 1,
        item_timeout: Optional[float] = None,
        max_item_retries: int = 2,
        checkpoint: Optional[str] = None,
        resume: bool = False) -> TVLAResult:
    """Collect and assess a fixed-vs-random campaign in one pass.

    The streaming companion to
    :func:`~repro.leakage.tvla.collect_tvla_traces` + ``tvla()``, with
    the same inputs (:func:`~repro.leakage.tvla.tvla_inputs`), the same
    supervision and the same t-values.  In process (one worker, no
    timeout, no checkpoint) every trace folds into the Welford state as
    it arrives and is dropped, so the assessment's memory stays
    O(samples) no matter how many traces the campaign collects.

    A pool (``workers > 1`` or a timeout) or a checkpoint needs the
    traces back in this process, so those runs collect through
    :func:`~repro.leakage.tvla.collect_tvla_traces` — its ledger and
    journal formats — and fold the groups afterwards.  At every worker
    count a trace still missing after supervision raises
    :class:`~repro.robustness.errors.CampaignError`.
    """
    if (item_timeout is not None or checkpoint is not None or
            resolve_workers(workers) > 1):
        fixed, random = collect_tvla_traces(
            trace_source, fixed_input, num_traces, rng,
            input_length=input_length, workers=workers,
            item_timeout=item_timeout,
            max_item_retries=max_item_retries,
            checkpoint=checkpoint, resume=resume)
        return tvla(fixed, random, threshold)
    inputs = tvla_inputs(fixed_input, num_traces, rng, input_length)
    accumulator = StreamingTTest()
    meta = {"campaign": "tvla", "traces": int(num_traces),
            "input_length": int(input_length or len(fixed_input)),
            "streaming": True}
    with record_campaign("tvla", dict(meta, workers=1)) as recording:
        _, ledger = supervised_map(
            partial(_fold_trace, trace_source, accumulator),
            [(index < num_traces, value)
             for index, value in enumerate(inputs)],
            workers=1, timeout=None, max_item_retries=max_item_retries)
        recording.ledger(ledger)
    ledger.require_complete("TVLA collection", "traces")
    return accumulator.result(threshold)

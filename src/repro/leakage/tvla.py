"""Test Vector Leakage Assessment (paper §VI-A, Fig. 10).

The standard fixed-vs-random TVLA: collect traces for a fixed input and
for random inputs, and run Welch's t-test per sample point.  |t| above the
conventional 4.5 threshold flags a statistically significant dependence of
the signal on the processed data — a potential side-channel leak.  The
t-test itself is the one-pass
:class:`~repro.leakage.streaming.StreamingTTest`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from ..observability import record_campaign
from ..parallel import resolve_workers, supervised_map
from ..robustness.checkpoint import content_key, open_journal

TVLA_THRESHOLD = 4.5
"""The conventional TVLA significance threshold."""


@dataclass
class TVLAResult:
    """Outcome of one fixed-vs-random TVLA run."""

    t_values: np.ndarray
    threshold: float = TVLA_THRESHOLD

    @property
    def max_abs_t(self) -> float:
        """Largest |t| over all sample points."""
        return float(np.abs(self.t_values).max())

    @property
    def leaks(self) -> bool:
        """True if any sample point exceeds the threshold."""
        return self.max_abs_t > self.threshold

    @property
    def leaky_fraction(self) -> float:
        """Fraction of sample points flagged as leaking."""
        return float((np.abs(self.t_values) > self.threshold).mean())

    def per_cycle_max(self, samples_per_cycle: int) -> np.ndarray:
        """Max |t| per clock cycle (the x-axis of the paper's Fig. 10)."""
        magnitude = np.abs(self.t_values)
        cycles = len(magnitude) // samples_per_cycle
        return magnitude[:cycles * samples_per_cycle].reshape(
            cycles, samples_per_cycle).max(axis=1)

    def phase_profile(self, samples_per_cycle: int,
                      segments: int = 5) -> List[float]:
        """Mean per-cycle max-|t| over ``segments`` equal time windows.

        Captures Fig. 10's no->high->low->no->medium leakage *pattern*
        so real and simulated assessments can be compared shape-wise.
        """
        per_cycle = self.per_cycle_max(samples_per_cycle)
        bounds = np.linspace(0, len(per_cycle), segments + 1).astype(int)
        return [float(per_cycle[start:stop].mean()) if stop > start
                else 0.0
                for start, stop in zip(bounds[:-1], bounds[1:])]


def tvla(traces_fixed: Iterable[np.ndarray],
         traces_random: Iterable[np.ndarray],
         threshold: float = TVLA_THRESHOLD) -> TVLAResult:
    """Fixed-vs-random TVLA over two trace collections.

    Folds the traces one at a time through
    :class:`~repro.leakage.streaming.StreamingTTest`, so any iterables
    work (generators included) and every trace is cut to the shortest
    length seen in either group.  An empty trace group raises a typed
    :class:`~repro.robustness.errors.CampaignError` naming the group —
    the assessment is statistically meaningless without both groups —
    and a group of one trace a
    :class:`~repro.robustness.errors.ConfigurationError`.
    """
    # streaming.py builds on this module's TVLAResult, so the t-test
    # engine is imported at call time
    from .streaming import StreamingTTest
    accumulator = StreamingTTest()
    for trace in traces_fixed:
        accumulator.add_fixed(trace)
    for trace in traces_random:
        accumulator.add_random(trace)
    return accumulator.result(threshold)


def tvla_inputs(fixed_input: Sequence[int], num_traces: int,
                rng: np.random.Generator,
                input_length: Optional[int] = None) -> List[List[int]]:
    """A fixed-vs-random campaign's inputs, fixed group first.

    ``num_traces`` copies of ``fixed_input``, then ``num_traces``
    random byte vectors of ``input_length`` (default: the fixed
    input's length) drawn from ``rng`` in order.
    """
    input_length = input_length or len(fixed_input)
    inputs = [list(fixed_input) for _ in range(num_traces)]
    inputs += [list(rng.integers(0, 256, size=input_length))
               for _ in range(num_traces)]
    return inputs


def collect_tvla_traces(trace_source: Callable[[Sequence[int]], np.ndarray],
                        fixed_input: Sequence[int],
                        num_traces: int,
                        rng: np.random.Generator,
                        input_length: Optional[int] = None,
                        workers: int = 1,
                        item_timeout: Optional[float] = None,
                        max_item_retries: int = 2,
                        checkpoint: Optional[str] = None,
                        resume: bool = False
                        ) -> "tuple[List[np.ndarray], List[np.ndarray]]":
    """Drive a trace source with fixed vs random inputs.

    ``trace_source`` maps an input byte sequence to one signal trace
    (e.g. an AES run on real hardware or through EMSim).  All random
    inputs are drawn from ``rng`` up front (:func:`tvla_inputs`), then
    the source runs once per input — with ``workers > 1`` the runs fan
    out over a process pool (ordered and deterministic for
    deterministic sources, e.g. EMSim).

    The fan-out is supervised at every worker count (see
    :mod:`repro.parallel`): ``item_timeout`` bounds each collection's
    wall clock, failures retry up to ``max_item_retries`` times, and
    ``checkpoint`` names a journal file (``resume=True`` replays
    completed traces from it) so an interrupted assessment resumes with
    bit-identical t-traces.  A trace lost after supervision raises
    :class:`~repro.robustness.errors.CampaignError` — TVLA's group
    statistics need every trace.
    """
    input_length = input_length or len(fixed_input)
    inputs = tvla_inputs(fixed_input, num_traces, rng, input_length)
    meta = {"campaign": "tvla", "traces": int(num_traces),
            "input_length": int(input_length)}

    def key_for(index: int, value: "List[int]") -> str:
        return content_key("tvla", index, bytes(bytearray(
            byte % 256 for byte in value)))

    with record_campaign("tvla", dict(
            meta, workers=resolve_workers(workers))) as recording:
        with open_journal(checkpoint, meta, resume) as journal:
            traces, ledger = supervised_map(
                trace_source, inputs, workers=workers,
                timeout=item_timeout, max_item_retries=max_item_retries,
                journal=journal, key_for=key_for)
        recording.checkpoint(checkpoint)
        recording.ledger(ledger)
    ledger.require_complete("TVLA collection", "traces")
    return traces[:num_traces], traces[num_traces:]

"""Analog-signal reconstruction from per-cycle amplitudes, and the inverse.

Forward direction (Eq. 6 of the paper): given per-cycle amplitudes ``x[n]``
and a kernel ``f``, synthesize ``y(t) = sum_n x[n] f(t - n)``.

Inverse direction (used during model *training*): given a captured waveform,
estimate the per-cycle amplitudes by least-squares deconvolution against the
kernel — this is how the paper extracts per-stage amplitudes ``A`` and
measured activity factors ``alpha = A_meas / A_simul`` from reference
signals.

Both directions run on plan-cached engines (see docs/architecture.md,
"Signal fast path").  Synthesis decomposes Eq. 6 into ``samples_per_cycle``
polyphase sub-kernels and scatters them in the time domain.
Deconvolution exploits that the normal-equations Gram ``K^T K + ridge*I``
is a symmetric banded (near-Toeplitz) matrix: the band is built directly
from the kernel autocorrelation — no sparse operator is materialized — and
its Cholesky factor is cached per geometry.  A third cache holds the
phase tables the hardware emitter evaluates scope grids with
(:func:`grid_phases`), shared by every capture on the same grid.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from ..observability.metrics import get_metrics
from ..observability.tracer import get_tracer
from ..robustness.errors import ConfigurationError
from .kernels import Kernel


# ---------------------------------------------------------------------------
# bounded plan caches (observable LRU)
# ---------------------------------------------------------------------------
class PlanCache:
    """Bounded LRU mapping geometry keys to prepared engine plans.

    Replaces the seed's unbounded ``lru_cache`` factor memoization:
    eviction keeps the resident factor memory proportional to the number
    of *distinct* geometries in flight, and lookups report hit/miss/evict
    through :class:`~repro.observability.metrics.MetricsRegistry` at the
    call sites (literal names, so the docs/observability.md name table
    stays checkable by repro-lint A502).  ``maxbytes`` also bounds the
    plans' summed ``nbytes``: the least recently used plans go first,
    down to none when one plan alone exceeds it.
    """

    def __init__(self, maxsize: int, maxbytes: Optional[int] = None) -> None:
        self.maxsize = int(maxsize)
        self.maxbytes = maxbytes
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def lookup(self, key: Hashable) -> Optional[object]:
        """Return the cached plan for ``key`` (refreshing LRU) or None."""
        plan = self._entries.get(key)
        if plan is not None:
            self._entries.move_to_end(key)
        return plan

    def store(self, key: Hashable, plan: object) -> int:
        """Insert (or replace) ``plan`` under ``key``; returns how many
        plans were evicted to keep within the bounds."""
        self._entries[key] = plan
        self._entries.move_to_end(key)
        evicted = 0
        while self._entries and (
                len(self._entries) > self.maxsize or
                self.maxbytes is not None and self.nbytes > self.maxbytes):
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    @property
    def nbytes(self) -> int:
        """Summed ``nbytes`` of the resident plans (0 for plans without)."""
        return sum(getattr(plan, "nbytes", 0)
                   for plan in self._entries.values())

    def clear(self) -> None:
        """Drop every cached plan."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_SYNTH_PLANS = PlanCache(maxsize=64)
_DECONV_PLANS = PlanCache(maxsize=128)
_PHASE_TABLES = PlanCache(maxsize=64, maxbytes=32 << 20)


def clear_plan_caches() -> None:
    """Reset every signal-engine plan cache (test isolation hook)."""
    _SYNTH_PLANS.clear()
    _DECONV_PLANS.clear()
    _PHASE_TABLES.clear()


def plan_cache_sizes() -> Dict[str, int]:
    """Current entry counts of the signal plan caches (introspection)."""
    return {"synthesis": len(_SYNTH_PLANS),
            "deconvolution": len(_DECONV_PLANS),
            "phases": len(_PHASE_TABLES)}


# ---------------------------------------------------------------------------
# synthesis (Eq. 6 forward direction)
# ---------------------------------------------------------------------------
def _polyphase_chunks(kernel: Kernel,
                      samples_per_cycle: int) -> np.ndarray:
    """Kernel response split into per-cycle rows of shape (K, spc).

    Row ``k`` holds ``response[k*spc:(k+1)*spc]`` zero-padded — the
    contribution one cycle's amplitude makes to the ``k``-th later cycle's
    sample window.
    """
    response = kernel.sampled(samples_per_cycle)
    support = max(1, -(-len(response) // samples_per_cycle))
    padded = np.zeros(support * samples_per_cycle)
    padded[:len(response)] = response
    return padded.reshape(support, samples_per_cycle)


class SynthesisPlan:
    """Prepared synthesis state for one ``(kernel, spc)`` geometry: the
    polyphase chunk matrix and a grow-only scratch buffer."""

    __slots__ = ("samples_per_cycle", "chunks", "_scratch")

    def __init__(self, kernel: Kernel, samples_per_cycle: int) -> None:
        self.samples_per_cycle = int(samples_per_cycle)
        self.chunks = _polyphase_chunks(kernel, samples_per_cycle)
        self._scratch = None

    def _scratch_rows(self, cycles: int) -> np.ndarray:
        """A reusable ``(cycles, spc)`` work buffer for the scatter.

        The buffer only ever grows; every use fully overwrites it, so
        reuse cannot leak state between traces.
        """
        if self._scratch is None or len(self._scratch) < cycles:
            self._scratch = np.empty((cycles, self.samples_per_cycle))
        return self._scratch[:cycles]

    def synthesize(self, amplitudes: np.ndarray) -> np.ndarray:
        """Run Eq. 6 for one amplitude vector."""
        return _overlap_add_synthesize(amplitudes, self.chunks,
                                       self._scratch_rows(len(amplitudes)))


def _synthesis_plan(kernel: Kernel, samples_per_cycle: int
                    ) -> SynthesisPlan:
    """Fetch (or build) the synthesis plan for one geometry."""
    registry = get_metrics()
    key = (kernel, samples_per_cycle)
    plan = _SYNTH_PLANS.lookup(key)
    if plan is not None:
        registry.increment("signal.synth.cache.hits")
        return plan  # type: ignore[return-value]
    registry.increment("signal.synth.cache.misses")
    plan = SynthesisPlan(kernel, samples_per_cycle)
    evicted = _SYNTH_PLANS.store(key, plan)
    if evicted:
        registry.increment("signal.synth.cache.evictions", evicted)
    return plan


def _overlap_add_synthesize(amplitudes: np.ndarray, chunks: np.ndarray,
                            scratch: np.ndarray) -> np.ndarray:
    """Time-domain polyphase scatter: Eq. 6 without the full convolution.

    Each cycle's amplitude scales the (short) kernel chunk rows into an
    overlap-add accumulator viewed as ``(cycles + support, spc)`` — K
    vectorized row-scatters instead of an O(len * support * spc) direct
    convolution.  The first row writes straight into the accumulator
    (only the K-row tail needs zeroing) and later rows stage through the
    plan's ``scratch`` buffer, so the hot path allocates exactly one
    output-sized array per trace.
    """
    cycles = len(amplitudes)
    support, samples_per_cycle = chunks.shape
    accumulator = np.empty((cycles + support) * samples_per_cycle)
    rows = accumulator.reshape(cycles + support, samples_per_cycle)
    column = amplitudes[:, None]
    np.multiply(column, chunks[0], out=rows[:cycles])
    rows[cycles:] = 0.0
    for shift in range(1, support):
        np.multiply(column, chunks[shift], out=scratch)
        rows[shift:shift + cycles] += scratch
    return accumulator[:cycles * samples_per_cycle]


def reconstruct(amplitudes: np.ndarray, kernel: Kernel,
                samples_per_cycle: int) -> np.ndarray:
    """Synthesize the waveform for per-cycle amplitudes (Eq. 6).

    Returns ``len(amplitudes) * samples_per_cycle`` samples on the uniform
    grid; kernel energy beyond the last cycle is truncated.  The
    geometry's cached plan runs a polyphase overlap-add scatter, which
    agrees with a direct convolution to well inside 1e-9.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    return _synthesis_plan(kernel, samples_per_cycle).synthesize(amplitudes)


def batch_reconstruct(amplitude_sets: Sequence[np.ndarray], kernel: Kernel,
                      samples_per_cycle: int) -> List[np.ndarray]:
    """Synthesize waveforms for many per-cycle amplitude vectors (Eq. 6).

    Each trace runs through exactly the same planned engine as
    :func:`reconstruct` (the plan is cached, so the batch resolves it
    once per geometry) — per-trace outputs are bit-identical to the
    sequential path.
    """
    signals = []
    with get_tracer().span("signal.batch_reconstruct"):
        for amplitudes in amplitude_sets:
            amplitudes = np.asarray(amplitudes, dtype=float)
            signals.append(_synthesis_plan(
                kernel, samples_per_cycle).synthesize(amplitudes))
    get_metrics().increment("batch_reconstructions", len(amplitude_sets))
    return signals


# ---------------------------------------------------------------------------
# grid phases (the hardware emitter's scope grids)
# ---------------------------------------------------------------------------
class PhaseTable:
    """Leading rows of one arithmetic time grid's phase factors.

    Row ``k`` describes the time ``k * step / scale`` (a grid ``k *
    step`` read on a clock ``scale`` times the nominal period): its
    whole cycle (``cycles``), its fraction (``fractions``) and
    ``e^(rate * fraction)`` for every rate (``phases``, (rows, rates)).
    The arrays are read-only: every caller reads views of them.
    """

    __slots__ = ("cycles", "fractions", "phases")

    def __init__(self, cycles: np.ndarray, fractions: np.ndarray,
                 phases: np.ndarray) -> None:
        self.cycles = cycles
        self.fractions = fractions
        self.phases = phases
        for column in (cycles, fractions, phases):
            column.flags.writeable = False

    @property
    def nbytes(self) -> int:
        """Bytes the three columns hold."""
        return self.cycles.nbytes + self.fractions.nbytes + \
            self.phases.nbytes

    def __len__(self) -> int:
        return len(self.cycles)


def _grid_rows(rates: np.ndarray, step: float, scale: float, start: int,
               stop: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``start .. stop - 1`` of a :class:`PhaseTable`, each computed
    from its own ``k`` alone (``(k * step) / scale``, its floor, the
    difference, and one complex ``exp`` per rate)."""
    grid = np.arange(start, stop) * step / scale
    cycles = np.floor(grid)
    fractions = grid - cycles
    return (cycles.astype(int), fractions,
            np.exp(np.multiply.outer(fractions, rates)))


def grid_phases(rates: np.ndarray, step: float, scale: float,
                count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cycles, fractions, phases)`` of the grid's first ``count`` rows.

    See :class:`PhaseTable`.  The table depends on nothing but ``rates``,
    ``step`` and ``scale``, so one cached table serves every capture on
    the same grid: every probe of a campaign shares one scope-grid
    table, and every probe of one length (at a nominal clock, every
    probe) one auto-range pilot table.  A request past a cached table's
    last row regrows it to at least twice its rows, computing only the
    new rows, so the views returned are the bits a table built for
    exactly ``count`` rows would hold.  The cache is bounded by resident
    bytes (32 MiB; a 10-round AES capture's ~113k-sample grid for 11
    units takes ~20 MB) and reports ``signal.phase.cache.*`` counters.
    """
    registry = get_metrics()
    rates = np.asarray(rates, dtype=complex)
    key = (rates.tobytes(), float(step), float(scale))
    table = _PHASE_TABLES.lookup(key)
    if isinstance(table, PhaseTable) and len(table) >= count:
        registry.increment("signal.phase.cache.hits")
    else:
        registry.increment("signal.phase.cache.misses")
        start = len(table) if isinstance(table, PhaseTable) else 0
        rows = _grid_rows(rates, step, scale, start, max(count, 2 * start))
        if isinstance(table, PhaseTable):
            rows = (np.concatenate((table.cycles, rows[0])),
                    np.concatenate((table.fractions, rows[1])),
                    np.concatenate((table.phases, rows[2])))
        table = PhaseTable(*rows)
        evicted = _PHASE_TABLES.store(key, table)
        if evicted:
            registry.increment("signal.phase.cache.evictions", evicted)
    return table.cycles[:count], table.fractions[:count], \
        table.phases[:count]


# ---------------------------------------------------------------------------
# deconvolution (inverse direction; the campaign hot path)
# ---------------------------------------------------------------------------
class DeconvPlan:
    """Prepared banded normal-equations solver for one geometry.

    The Gram matrix ``K^T K`` of the kernel convolution operator is
    symmetric with half-bandwidth ``support - 1`` and is Toeplitz except
    for end effects where the operator's columns truncate at the signal
    boundary.  The band is assembled directly from shifted products of
    the padded kernel response (cumulative sums give every column's
    truncated inner product in one vectorized pass), ridge-shifted, and
    Cholesky-factored once; every solve is then two banded triangular
    sweeps.
    """

    __slots__ = ("num_cycles", "samples_per_cycle", "chunks", "factor")

    def __init__(self, kernel: Kernel, samples_per_cycle: int,
                 num_cycles: int, ridge: float) -> None:
        self.num_cycles = int(num_cycles)
        self.samples_per_cycle = int(samples_per_cycle)
        self.chunks = _polyphase_chunks(kernel, samples_per_cycle)
        support = self.chunks.shape[0]
        padded = self.chunks.ravel()
        half_bandwidth = min(support - 1, num_cycles - 1)
        band = np.zeros((half_bandwidth + 1, num_cycles))
        for lag in range(half_bandwidth + 1):
            shift = lag * samples_per_cycle
            products = padded[shift:] * padded[:padded.size - shift]
            sums = np.concatenate(([0.0], np.cumsum(products)))
            columns = np.arange(lag, num_cycles)
            available = np.minimum(
                products.size,
                (num_cycles - columns) * samples_per_cycle)
            band[half_bandwidth - lag, columns] = sums[available]
        band[half_bandwidth] += ridge
        self.factor = cholesky_banded(band, lower=False)

    def solve(self, signals_matrix: np.ndarray) -> np.ndarray:
        """Amplitudes for stacked signals of shape (count, samples)."""
        rhs = _banded_rhs(signals_matrix, self.chunks, self.num_cycles)
        return cho_solve_banded((self.factor, False), rhs.T).T


def _banded_rhs(signals_matrix: np.ndarray, chunks: np.ndarray,
                num_cycles: int) -> np.ndarray:
    """Compute ``K^T y`` for stacked signals without materializing ``K``.

    Cycle ``c``'s entry correlates the kernel chunk rows against the
    signal windows at cycles ``c .. c+support-1`` — a handful of blocked
    matrix-vector products over the ``(count, cycles, spc)`` view.
    """
    count = signals_matrix.shape[0]
    samples_per_cycle = chunks.shape[1]
    blocks = signals_matrix.reshape(count, num_cycles, samples_per_cycle)
    out = np.zeros((count, num_cycles))
    for shift in range(min(chunks.shape[0], num_cycles)):
        out[:, :num_cycles - shift] += blocks[:, shift:, :] @ chunks[shift]
    return out


def _deconv_plan(kernel: Kernel, samples_per_cycle: int,
                 num_cycles: int, ridge: float) -> DeconvPlan:
    """Fetch (or build) the banded deconvolution plan for one geometry."""
    registry = get_metrics()
    key = (kernel, samples_per_cycle, num_cycles, ridge)
    plan = _DECONV_PLANS.lookup(key)
    if plan is not None:
        registry.increment("signal.deconv.cache.hits")
        return plan  # type: ignore[return-value]
    registry.increment("signal.deconv.cache.misses")
    plan = DeconvPlan(kernel, samples_per_cycle, num_cycles, ridge)
    evicted = _DECONV_PLANS.store(key, plan)
    if evicted:
        registry.increment("signal.deconv.cache.evictions", evicted)
    return plan


def _check_signal_alignment(length: int, samples_per_cycle: int) -> int:
    """Cycle count for an aligned signal; ConfigurationError otherwise."""
    if length % samples_per_cycle:
        raise ConfigurationError("signal length must be a multiple of "
                                 "samples_per_cycle")
    return length // samples_per_cycle


def estimate_cycle_amplitudes(signal: np.ndarray, kernel: Kernel,
                              samples_per_cycle: int,
                              ridge: float = 1e-9) -> np.ndarray:
    """Least-squares estimate of per-cycle amplitudes from a waveform.

    Solves ``min_x ||K x - y||^2 + ridge ||x||^2`` where ``K`` is the
    kernel convolution operator, through the symmetric banded normal
    equations and a Cholesky band factor cached per geometry.  The tiny
    ridge keeps the system well-posed for kernels with weak tails.
    """
    signal = np.asarray(signal, dtype=float)
    num_cycles = _check_signal_alignment(len(signal), samples_per_cycle)
    plan = _deconv_plan(kernel, samples_per_cycle, num_cycles, float(ridge))
    return np.ascontiguousarray(plan.solve(signal.reshape(1, -1))[0])


def batch_estimate_cycle_amplitudes(signals: Sequence[np.ndarray],
                                    kernel: Kernel,
                                    samples_per_cycle: int,
                                    ridge: float = 1e-9
                                    ) -> List[np.ndarray]:
    """Deconvolve per-cycle amplitudes for a whole batch of waveforms.

    Groups the signals by length and solves each geometry's stacked
    right-hand sides through the same cached banded plan as
    :func:`estimate_cycle_amplitudes`.  Results match the one-at-a-time
    path to the solver's roundoff (well inside 1e-9) and come back in
    input order.
    """
    signals = [np.asarray(signal, dtype=float) for signal in signals]
    groups: Dict[int, List[int]] = {}
    for index, signal in enumerate(signals):
        _check_signal_alignment(len(signal), samples_per_cycle)
        groups.setdefault(len(signal), []).append(index)
    results: List[np.ndarray] = [None] * len(signals)  # type: ignore
    with get_tracer().span("signal.batch_estimate"):
        for length, indices in groups.items():
            plan = _deconv_plan(kernel, samples_per_cycle,
                                length // samples_per_cycle, float(ridge))
            solution = plan.solve(np.stack([signals[i] for i in indices]))
            for row, index in enumerate(indices):
                results[index] = np.ascontiguousarray(solution[row])
    get_metrics().increment("batch_deconvolutions", len(signals))
    return results

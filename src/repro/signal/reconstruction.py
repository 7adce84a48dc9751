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
polyphase sub-kernels and either scatters them time-domain (short kernel
support) or multiplies cached per-phase spectra (long support).
Deconvolution exploits that the normal-equations Gram ``K^T K + ridge*I``
is a symmetric banded (near-Toeplitz) matrix: the band is built directly
from the kernel autocorrelation — no sparse operator is materialized — and
its Cholesky factor is cached per geometry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Sequence

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
    stays checkable by repro-lint A502).
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def lookup(self, key: Hashable) -> Optional[object]:
        """Return the cached plan for ``key`` (refreshing LRU) or None."""
        plan = self._entries.get(key)
        if plan is not None:
            self._entries.move_to_end(key)
        return plan

    def store(self, key: Hashable, plan: object) -> bool:
        """Insert ``plan`` under ``key``; True if an entry was evicted."""
        self._entries[key] = plan
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            return True
        return False

    def clear(self) -> None:
        """Drop every cached plan."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_SYNTH_PLANS = PlanCache(maxsize=64)
_DECONV_PLANS = PlanCache(maxsize=128)

#: polyphase sub-kernel count at or above which the planner prefers the
#: spectral path over the time-domain scatter (short EMSim kernels — a few
#: cycles of support — scatter faster than any FFT at realistic lengths).
_SPECTRAL_SUPPORT_THRESHOLD = 16


def clear_plan_caches() -> None:
    """Reset every signal-engine plan cache (test isolation hook)."""
    _SYNTH_PLANS.clear()
    _DECONV_PLANS.clear()


def plan_cache_sizes() -> Dict[str, int]:
    """Current entry counts of the signal plan caches (introspection)."""
    return {"synthesis": len(_SYNTH_PLANS),
            "deconvolution": len(_DECONV_PLANS)}


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
    """Prepared synthesis state for one ``(kernel, spc, bucket)`` geometry.

    Holds the polyphase chunk matrix for the time-domain scatter and, when
    the planner selects the spectral path, the cached per-phase kernel
    spectra at the bucketed FFT length.
    """

    __slots__ = ("samples_per_cycle", "chunks", "use_fft", "fft_length",
                 "spectra", "_scratch")

    def __init__(self, kernel: Kernel, samples_per_cycle: int,
                 bucket_cycles: int, spectral: bool) -> None:
        self.samples_per_cycle = int(samples_per_cycle)
        self.chunks = _polyphase_chunks(kernel, samples_per_cycle)
        self._scratch = None
        self.use_fft = bool(spectral)
        if spectral:
            support = self.chunks.shape[0]
            length = 1
            while length < bucket_cycles + support:
                length <<= 1
            self.fft_length = length
            self.spectra = np.fft.rfft(self.chunks, n=length, axis=0).T
        else:
            self.fft_length = 0
            self.spectra = None

    def _scratch_rows(self, cycles: int) -> np.ndarray:
        """A reusable ``(cycles, spc)`` work buffer for the scatter path.

        The buffer only ever grows; every use fully overwrites it, so
        reuse cannot leak state between traces.
        """
        if self._scratch is None or len(self._scratch) < cycles:
            self._scratch = np.empty((cycles, self.samples_per_cycle))
        return self._scratch[:cycles]

    def synthesize(self, amplitudes: np.ndarray) -> np.ndarray:
        """Run Eq. 6 for one amplitude vector on the planned path."""
        if self.use_fft:
            return _spectral_synthesize(amplitudes, self)
        return _overlap_add_synthesize(amplitudes, self.chunks,
                                       self._scratch_rows(len(amplitudes)))


def _length_bucket(num_cycles: int) -> int:
    """Bucket a trace length so nearby lengths share one spectral plan."""
    bucket = 64
    while bucket < num_cycles:
        bucket <<= 1
    return bucket


def _synthesis_plan(kernel: Kernel, samples_per_cycle: int,
                    num_cycles: int, spectral: bool) -> SynthesisPlan:
    """Fetch (or build) the synthesis plan for one geometry."""
    registry = get_metrics()
    if spectral:
        key = (kernel, samples_per_cycle, _length_bucket(num_cycles), True)
    else:
        key = (kernel, samples_per_cycle, 0, False)
    plan = _SYNTH_PLANS.lookup(key)
    if plan is not None:
        registry.increment("signal.synth.cache.hits")
        return plan  # type: ignore[return-value]
    registry.increment("signal.synth.cache.misses")
    plan = SynthesisPlan(kernel, samples_per_cycle,
                         _length_bucket(num_cycles) if spectral else 0,
                         spectral)
    if _SYNTH_PLANS.store(key, plan):
        registry.increment("signal.synth.cache.evictions")
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


def _spectral_synthesize(amplitudes: np.ndarray,
                         plan: SynthesisPlan) -> np.ndarray:
    """Frequency-domain polyphase synthesis on a plan's cached spectra.

    One forward FFT of the amplitude vector multiplies all per-phase
    kernel spectra at once; the inverse transform lands each phase's
    sample stream, interleaved back onto the uniform grid.
    """
    cycles = len(amplitudes)
    spectrum = np.fft.rfft(amplitudes, plan.fft_length)
    phases = np.fft.irfft(spectrum[None, :] * plan.spectra,
                          plan.fft_length, axis=1)
    return phases[:, :cycles].T.ravel()


def _synthesize(amplitudes: np.ndarray, kernel: Kernel,
                samples_per_cycle: int) -> np.ndarray:
    """Run one amplitude vector through its geometry's planned engine.

    Kernels whose support spans at least
    :data:`_SPECTRAL_SUPPORT_THRESHOLD` cycles take the spectral path;
    shorter ones take the time-domain scatter.
    """
    support = max(1, -(-len(kernel.sampled(samples_per_cycle))
                       // samples_per_cycle))
    plan = _synthesis_plan(kernel, samples_per_cycle, len(amplitudes),
                           spectral=support >= _SPECTRAL_SUPPORT_THRESHOLD)
    return plan.synthesize(amplitudes)


def reconstruct(amplitudes: np.ndarray, kernel: Kernel,
                samples_per_cycle: int) -> np.ndarray:
    """Synthesize the waveform for per-cycle amplitudes (Eq. 6).

    Returns ``len(amplitudes) * samples_per_cycle`` samples on the uniform
    grid; kernel energy beyond the last cycle is truncated.  The plan
    cache picks the engine from the kernel's support: a polyphase
    overlap-add scatter for short kernels, a cached-spectra FFT path for
    long ones.  Both agree with a direct convolution to well inside 1e-9.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    return _synthesize(amplitudes, kernel, samples_per_cycle)


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
            signals.append(_synthesize(amplitudes, kernel,
                                       samples_per_cycle))
    get_metrics().increment("batch_reconstructions", len(amplitude_sets))
    return signals


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
    if _DECONV_PLANS.store(key, plan):
        registry.increment("signal.deconv.cache.evictions")
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

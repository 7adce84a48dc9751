"""Property-based oracle agreement for the streaming signal engine.

The signal fast path (docs/architecture.md, "Signal fast path") is
checked against the seed's paths: direct ``np.convolve`` synthesis, the
sparse-operator deconvolver and the two-pass Welch t-test (all in
``tests/oracles.py``).  These properties pin the engine to those oracles
over *generated* inputs — arbitrary amplitude vectors and kernel
geometries, fault-corrupted captures, shuffled trace arrival orders —
not just the canned shapes the unit tests use.  Trace-sized results
that come back from a real supervised pool (a timeout forces pool mode
even on a single-CPU box) are pinned to the in-process loop's.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.leakage.streaming import StreamingTTest
from repro.leakage.tvla import tvla
from repro.parallel import supervised_map
from repro.robustness import CampaignError, ConfigurationError
from repro.robustness.errors import AcquisitionError
from repro.robustness.faults import FaultInjector, FaultPlan
from repro.signal.kernels import DampedSineKernel, ExpKernel
from repro.signal.reconstruction import (batch_estimate_cycle_amplitudes,
                                         batch_reconstruct,
                                         clear_plan_caches,
                                         estimate_cycle_amplitudes,
                                         reconstruct)

from .oracles import (direct_reconstruct, lu_estimate_cycle_amplitudes,
                      two_pass_welch_t)

TOLERANCE = 1e-9

_AMPLITUDES = st.lists(
    st.floats(min_value=-100.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=96).map(np.asarray)

_KERNELS = st.one_of(
    st.builds(DampedSineKernel,
              t0=st.floats(0.05, 0.9),
              theta=st.floats(0.5, 8.0)),
    st.builds(ExpKernel, theta=st.floats(0.5, 8.0)))

_SPC = st.integers(2, 24)


# ---------------------------------------------------------------------------
# synthesis: planned engine vs the direct np.convolve oracle
# ---------------------------------------------------------------------------
@given(amplitudes=_AMPLITUDES, kernel=_KERNELS, spc=_SPC)
@settings(max_examples=60, deadline=None)
def test_planned_synthesis_matches_direct_oracle(amplitudes, kernel, spc):
    oracle = direct_reconstruct(amplitudes, kernel, spc)
    planned = reconstruct(amplitudes, kernel, spc)
    assert np.max(np.abs(planned - oracle)) <= TOLERANCE


@given(amplitudes=_AMPLITUDES, kernel=_KERNELS, spc=_SPC)
@settings(max_examples=25, deadline=None)
def test_batch_synthesis_is_bit_identical_to_sequential(amplitudes,
                                                        kernel, spc):
    batch = batch_reconstruct([amplitudes, amplitudes * 2.0], kernel, spc)
    assert np.array_equal(batch[0], reconstruct(amplitudes, kernel, spc))
    assert np.array_equal(batch[1],
                          reconstruct(amplitudes * 2.0, kernel, spc))


def test_cold_plans_agree_with_warm_plans():
    # a freshly built plan and a cache hit must synthesize identically
    kernel = DampedSineKernel(t0=0.25, theta=4.0)
    amplitudes = np.linspace(-1.0, 1.0, 48)
    clear_plan_caches()
    cold = reconstruct(amplitudes, kernel, 10)
    warm = reconstruct(amplitudes, kernel, 10)
    assert np.array_equal(cold, warm)


# ---------------------------------------------------------------------------
# deconvolution: banded Cholesky vs the sparse-operator oracle
# ---------------------------------------------------------------------------
@given(amplitudes=_AMPLITUDES, kernel=_KERNELS, spc=_SPC,
       noise_seed=st.integers(0, 2**16 - 1))
@settings(max_examples=40, deadline=None)
def test_banded_deconvolution_matches_lu_oracle(amplitudes, kernel, spc,
                                                noise_seed):
    rng = np.random.default_rng(noise_seed)
    signal = direct_reconstruct(amplitudes, kernel, spc)
    signal = signal + 0.01 * rng.standard_normal(len(signal))
    banded = estimate_cycle_amplitudes(signal, kernel, spc)
    oracle = lu_estimate_cycle_amplitudes(signal, kernel, spc)
    assert np.max(np.abs(banded - oracle)) <= TOLERANCE


@given(amplitudes=_AMPLITUDES, kernel=_KERNELS, spc=_SPC,
       fault_seed=st.integers(0, 2**16 - 1))
@settings(max_examples=25, deadline=None)
def test_deconvolution_engines_agree_on_faulted_captures(amplitudes,
                                                         kernel, spc,
                                                         fault_seed):
    # captures mangled by the bench fault injector (drift, saturation,
    # bursts, drops) must still deconvolve identically on both engines:
    # the solvers may not diverge just because the data got ugly
    signal = direct_reconstruct(amplitudes, kernel, spc)
    injector = FaultInjector(FaultPlan.preset(0.9, seed=fault_seed))
    # capture-level failures (brown-out, trigger loss) are retried by
    # the acquisition layer; only the signal-level corruption matters
    with contextlib.suppress(AcquisitionError):
        injector.begin_capture()
    times = np.arange(len(signal), dtype=float)
    _, faulted = injector.corrupt(times, signal)
    aligned = np.zeros(len(signal))
    aligned[:len(faulted)] = faulted[:len(signal)]
    banded = batch_estimate_cycle_amplitudes([aligned], kernel, spc)
    oracle = lu_estimate_cycle_amplitudes(aligned, kernel, spc)
    assert np.max(np.abs(banded[0] - oracle)) <= TOLERANCE


@given(kernel=_KERNELS, spc=_SPC,
       lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6))
@settings(max_examples=20, deadline=None)
def test_batch_deconvolution_handles_mixed_lengths(kernel, spc, lengths):
    # the batch path groups by geometry; per-trace results must match
    # the sequential single-trace solves in the original input order
    rng = np.random.default_rng(7)
    signals = [rng.standard_normal(cycles * spc) for cycles in lengths]
    batch = batch_estimate_cycle_amplitudes(signals, kernel, spc)
    for signal, estimate in zip(signals, batch):
        single = estimate_cycle_amplitudes(signal, kernel, spc)
        assert np.max(np.abs(estimate - single)) <= TOLERANCE


def test_misaligned_batch_raises_configuration_error():
    kernel = DampedSineKernel(t0=0.25, theta=4.0)
    with pytest.raises(ConfigurationError):
        batch_estimate_cycle_amplitudes([np.ones(7)], kernel, 5)
    # ConfigurationError subclasses ValueError, so pre-engine callers'
    # except ValueError handlers keep catching the misalignment
    assert issubclass(ConfigurationError, ValueError)


# ---------------------------------------------------------------------------
# pool results vs the in-process loop
# ---------------------------------------------------------------------------
# generous deadline: forces pool mode (deadline enforcement needs a
# worker process) without ever tripping on a slow machine
SAFE_TIMEOUT = 60.0

#: 4096 float64s = 32 KiB, a trace-sized result
_TRACE_SAMPLES = 4096


def trace_worker(seed):
    """Deterministic worker returning a trace-sized array."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(_TRACE_SAMPLES)


def record_worker(seed):
    """Worker returning a (scalar, large array, small array) record."""
    rng = np.random.default_rng(seed)
    return (seed, rng.standard_normal(_TRACE_SAMPLES), np.ones(4))


def _assert_arrays_identical(left, right):
    assert left.dtype == right.dtype
    assert np.array_equal(left, right)


@pytest.mark.parametrize("workers", [1, 4])
def test_shared_transport_is_identical_to_codec(workers):
    items = list(range(8))
    in_process, _ = supervised_map(trace_worker, items, workers=1)
    pooled, ledger = supervised_map(
        trace_worker, items, workers=workers, timeout=SAFE_TIMEOUT)
    assert ledger.complete
    for expected, trace in zip(in_process, pooled):
        _assert_arrays_identical(expected, trace)


@pytest.mark.parametrize("workers", [1, 4])
def test_shared_transport_handles_structured_results(workers):
    items = list(range(5))
    in_process, _ = supervised_map(record_worker, items, workers=1)
    pooled, ledger = supervised_map(
        record_worker, items, workers=workers, timeout=SAFE_TIMEOUT)
    assert ledger.complete
    for expected, record in zip(in_process, pooled):
        assert expected[0] == record[0]
        _assert_arrays_identical(expected[1], record[1])
        _assert_arrays_identical(expected[2], record[2])


# ---------------------------------------------------------------------------
# statistics: the streaming Welford t-test vs the two-pass Welch oracle
# ---------------------------------------------------------------------------
_TRACE_GROUPS = st.tuples(
    st.integers(2, 12), st.integers(2, 12), st.integers(4, 64),
    st.integers(0, 2**16 - 1))


@given(shape=_TRACE_GROUPS)
@settings(max_examples=60, deadline=None)
def test_streaming_tvla_matches_batch(shape):
    fixed_count, random_count, samples, seed = shape
    rng = np.random.default_rng(seed)
    fixed = [rng.standard_normal(samples) for _ in range(fixed_count)]
    random = [rng.standard_normal(samples) + 0.5
              for _ in range(random_count)]
    batch = two_pass_welch_t(fixed, random)
    streamed = tvla(iter(fixed), iter(random))
    assert np.max(np.abs(streamed.t_values - batch)) <= TOLERANCE
    assert streamed.leaks == bool(np.abs(batch).max() > 4.5)


@given(shape=_TRACE_GROUPS, order_seed=st.integers(0, 2**16 - 1))
@settings(max_examples=30, deadline=None)
def test_streaming_tvla_is_arrival_order_invariant(shape, order_seed):
    fixed_count, random_count, samples, seed = shape
    rng = np.random.default_rng(seed)
    fixed = [rng.standard_normal(samples) for _ in range(fixed_count)]
    random = [rng.standard_normal(samples) for _ in range(random_count)]
    reference = tvla(fixed, random).t_values
    # interleave the two groups in a shuffled arrival order
    arrivals = [("f", trace) for trace in fixed]
    arrivals += [("r", trace) for trace in random]
    np.random.default_rng(order_seed).shuffle(arrivals)
    accumulator = StreamingTTest()
    for group, trace in arrivals:
        if group == "f":
            accumulator.add_fixed(trace)
        else:
            accumulator.add_random(trace)
    assert np.max(np.abs(accumulator.t_values() - reference)) <= TOLERANCE


@given(shape=_TRACE_GROUPS, trim=st.integers(1, 16))
@settings(max_examples=25, deadline=None)
def test_streaming_truncation_matches_batch_min_length(shape, trim):
    # one late short trace must truncate the assessment exactly the way
    # the batch path's up-front min-length cut does
    fixed_count, random_count, samples, seed = shape
    rng = np.random.default_rng(seed)
    short = max(1, samples - trim)
    fixed = [rng.standard_normal(samples) for _ in range(fixed_count)]
    random = [rng.standard_normal(samples)
              for _ in range(random_count - 1)]
    random.append(rng.standard_normal(short))
    batch = two_pass_welch_t(fixed, random)
    streamed = tvla(fixed, random)
    assert len(streamed.t_values) == short
    assert np.max(np.abs(streamed.t_values - batch)) <= TOLERANCE


def test_empty_group_raises_typed_campaign_error():
    trace = np.ones(8)
    with pytest.raises(CampaignError, match="fixed trace group"):
        tvla([], [trace, trace])
    with pytest.raises(CampaignError, match="random trace group"):
        tvla([trace, trace], [])


def test_welch_contract_violations_are_configuration_errors():
    with pytest.raises(ConfigurationError):
        tvla([np.ones(5)] * 3, [np.ones(5)])
    with pytest.raises(ConfigurationError):
        tvla([np.ones(5)], [np.ones(5)] * 3)
    accumulator = StreamingTTest()
    accumulator.add_fixed(np.ones(5))
    accumulator.add_random(np.ones(5))
    with pytest.raises(ConfigurationError):
        accumulator.t_values()


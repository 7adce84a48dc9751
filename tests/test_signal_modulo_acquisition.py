"""Tests for the modulo operation and the scope model."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hardware import DeviceInstance, HardwareDevice
from repro.robustness import AcquisitionError, FaultPlan
from repro.signal import (DampedSineKernel, Oscilloscope, ScopeConfig,
                          modular_offsets, modulo_average, reconstruct,
                          simulation_accuracy)
from repro.signal.modulo import offset_bins
from repro.workloads import RandomProgramBuilder

from .oracles import (on_grid, per_repetition_capture, reconstruct_at,
                      seed_offset_bins)

KERNEL = DampedSineKernel()
SPC = 20


def test_modular_offsets_eq1():
    times = np.array([0.0, 1.5, 10.0, 10.25])
    offsets = modular_offsets(times, period=10.0)
    assert np.allclose(offsets, [0.0, 1.5, 0.0, 0.25])


@pytest.mark.parametrize("period, num_bins",
                         [(30.0, 600), (97.0013, 1940), (4.0, 32),
                          (0.37, 7), (113.25, 2265)])
def test_offset_bins_match_the_seed_binning(period, num_bins):
    rng = np.random.default_rng(num_bins)
    # scope grids: 40 repetitions, each jittered, at an asynchronous rate
    rate = num_bins / period * (1 + 1.37e-3)
    count = int(period * rate)
    grid = (rng.uniform(0, 0.4, (40, 1)) + np.arange(count) / rate
            + period * np.arange(40)[:, None])
    multiples = period * np.arange(-3.0, 4.0)
    # tiny negatives: np.mod maps them to ``period`` itself, whose index
    # rounds to ``num_bins`` and must wrap to bin 0
    tiny = -np.logspace(-300, -17, 12)
    assert np.all(modular_offsets(tiny, period) == period)
    edges = np.concatenate([
        -grid[:3].ravel(), multiples, np.nextafter(multiples, -np.inf),
        np.nextafter(multiples, np.inf), [-0.0, 0.0], tiny])
    for times in (grid, grid.ravel(), edges):
        expected = seed_offset_bins(times, period, num_bins)
        bins = offset_bins(times, period, num_bins)
        assert bins.dtype == expected.dtype
        assert bins.shape == expected.shape
        assert np.array_equal(bins, expected)
    assert np.all(offset_bins(tiny, period, num_bins) == 0)


def _assert_seed_bins(times, period, num_bins):
    expected = seed_offset_bins(times, period, num_bins)
    bins = offset_bins(times, period, num_bins)
    assert bins.dtype == expected.dtype
    assert bins.shape == expected.shape
    assert np.array_equal(bins, expected)


@given(cycles=st.integers(1, 300), clock_scale=st.floats(0.97, 1.03),
       samples_per_cycle=st.integers(2, 40),
       rate_offset=st.sampled_from([0.0, 1.37e-3, -2.1e-4, 0.013]),
       bins_per_cycle=st.integers(1, 40), repetitions=st.integers(1, 60),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=150, deadline=None)
def test_offset_bins_match_the_seed_on_scope_captures(
        cycles, clock_scale, samples_per_cycle, rate_offset, bins_per_cycle,
        repetitions, seed):
    """Times built as the scope builds them: a jittered row per delivered
    repetition, shifted by its repetition index times the period, with
    repetitions lost at random and some rows' tails walked by a clock
    spike."""
    rng = np.random.default_rng(seed)
    period = cycles * clock_scale
    rate = samples_per_cycle * (1.0 + rate_offset)
    count = max(1, int(period * rate))
    delivered = np.flatnonzero(rng.random(repetitions) >= 0.2)
    if not delivered.size:
        delivered = np.array([repetitions - 1])
    times = rng.uniform(0, 0.4, (len(delivered), 1)) + np.arange(count) / rate
    for row in times[rng.random(len(times)) < 0.2]:
        row[rng.integers(0, count):] += rng.uniform(-0.8, 0.8)
    times += (delivered * period)[:, None]
    _assert_seed_bins(times, period, cycles * bins_per_cycle)


_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e-300, 1e300, -1e300, 1.7976931348623157e308, 2.0 ** 53,
                2.0 ** 53 + 2.0)


@st.composite
def _edge_matrices(draw):
    """A period and a (rows, columns) time matrix around its multiples.

    Each row centres on its own multiple ``q * period`` (``q`` from below
    zero up to where the grid spacing exceeds the period); its entries are
    multiples near ``q``, their ``nextafter`` neighbours a few steps either
    way, fractions of a period past them, or one of the edge values: ±0,
    subnormal, huge and beyond-``2**53`` magnitudes.  Periods span tiny
    to huge, past the range the row subtraction takes.
    """
    period = draw(st.one_of(
        st.sampled_from([1.0, 0.1, 3.0, 96.7, 113.25, 2.0 ** -40,
                         1e-300, 1e300]),
        st.floats(1e-6, 1e6)))
    rows = draw(st.integers(1, 5))
    columns = draw(st.integers(1, 10))
    matrix = np.empty((rows, columns))
    for row in range(rows):
        base = draw(st.one_of(st.integers(-3, 6), st.integers(-10, 10 ** 6),
                              st.integers(2 ** 50, 2 ** 60)))
        kinds = ["multiple", "fraction"] + ["edge"] * draw(st.integers(0, 1))
        for column in range(columns):
            kind = draw(st.sampled_from(kinds))
            if kind == "edge":
                matrix[row, column] = draw(st.sampled_from(_EDGE_VALUES))
                continue
            with np.errstate(over="ignore"):
                value = (base + draw(st.integers(-1, 2))) * period
                if kind == "fraction":
                    value += draw(st.floats(0.0, 1.0)) * period
            direction = draw(st.sampled_from([-np.inf, np.inf]))
            for _ in range(draw(st.integers(0, 3))):
                value = np.nextafter(value, direction)
            matrix[row, column] = value
    # the seed's bins are defined for finite times only
    assume(np.isfinite(matrix).all())
    return period, matrix


@given(_edge_matrices(), st.integers(1, 4096))
@settings(max_examples=300, deadline=None)
def test_offset_bins_match_the_seed_on_edge_times(edge, num_bins):
    period, times = edge
    with np.errstate(all="ignore"):
        _assert_seed_bins(times, period, num_bins)
        _assert_seed_bins(times.ravel(), period, num_bins)


def test_modulo_average_folds_periodic_signal():
    period, bins = 8.0, 64
    rng = np.random.default_rng(0)
    times = np.sort(rng.uniform(0, 20 * period, 40000))
    clean = np.sin(2 * np.pi * times / period)
    noisy = clean + rng.normal(0, 0.3, size=times.shape)
    reference, counts = modulo_average(noisy, times, period, bins)
    grid = (np.arange(bins) / bins) * period
    expected = np.sin(2 * np.pi * grid / period)
    assert counts.sum() == len(times)
    assert np.max(np.abs(reference - expected)) < 0.1
    # given its samples' bins, the fold reads no times
    given = modulo_average(noisy, None, period, bins,
                           bins=offset_bins(times, period, bins))
    assert np.array_equal(given[0], reference)
    assert np.array_equal(given[1], counts)


def test_modulo_average_interpolates_empty_bins():
    # integer sampling: only a few distinct offsets land in bins
    times = np.arange(0, 400, 1.0)
    samples = np.cos(2 * np.pi * times / 4.0)
    reference, counts = modulo_average(samples, times, period=4.0,
                                       num_bins=32)
    assert (counts == 0).any()
    assert np.isfinite(reference).all()


def test_modulo_average_requires_samples():
    with pytest.raises(AcquisitionError):
        modulo_average(np.array([]), np.array([]), 4.0, 8)


def test_scope_capture_shapes_and_quantization():
    scope = Oscilloscope(ScopeConfig(samples_per_cycle=8.0,
                                     noise_rms=0.0, adc_bits=6,
                                     trigger_jitter_cycles=0.0),
                         np.random.default_rng(0))
    times_list, samples_list = scope.capture_repetition_list(
        on_grid(np.sin), 10.0, 1)
    (times,), (samples,) = times_list, samples_list
    assert len(times) == len(samples) == int(10 * 8.0 * (1 + 1.37e-3))
    step = 4.0 / 2 ** 6
    assert np.allclose(np.round(samples / step), samples / step)


def test_scope_noise_statistics():
    scope = Oscilloscope(ScopeConfig(samples_per_cycle=50.0,
                                     noise_rms=0.1, adc_bits=14),
                         np.random.default_rng(1))
    _, (samples,) = scope.capture_repetition_list(
        on_grid(np.zeros_like), 200.0, 1)
    assert 0.08 < samples.std() < 0.12


def test_full_capture_chain_recovers_reference(rng):
    amplitudes = rng.uniform(0.2, 1.5, 30)
    ideal = reconstruct(amplitudes, KERNEL, SPC)
    scope = Oscilloscope(ScopeConfig(samples_per_cycle=7.0,
                                     noise_rms=0.05),
                         np.random.default_rng(2))
    times_list, samples_list = scope.capture_repetition_list(
        on_grid(lambda t: reconstruct_at(amplitudes, KERNEL, t)), 30.0, 300)
    reference, _ = modulo_average(np.concatenate(samples_list),
                                  np.concatenate(times_list), period=30.0,
                                  num_bins=30 * SPC)
    assert simulation_accuracy(ideal, reference, SPC) > 0.95


@given(st.floats(2.0, 50.0), st.integers(8, 128))
@settings(max_examples=30, deadline=None)
def test_modulo_offsets_within_period(period, bins):
    times = np.linspace(0, 1000, 777)
    offsets = modular_offsets(times, period)
    assert np.all(offsets >= 0)
    assert np.all(offsets < period)


@pytest.mark.parametrize("fault_rate", [0.0, 0.25])
@pytest.mark.parametrize("instance_id", [0, 1])
def test_capture_matches_the_per_repetition_loop(fault_rate, instance_id):
    """The noise-matrix capture equals the per-repetition draw-and-add
    loop bit for bit on the emitter's grids: the same times, samples and
    repetition accounting, and the same RNG states afterwards, for
    clean and faulted captures (lost, railed and ragged repetitions
    included) at a nominal and an off-nominal clock."""
    plan = FaultPlan.preset(fault_rate, seed=5) if fault_rate else None
    device = HardwareDevice(instance=DeviceInstance(instance_id=instance_id),
                            fault_plan=plan)
    builder = RandomProgramBuilder(seed=instance_id)
    for index in range(4):
        trace = device.run_trace(builder.program(24, name=f"p{index}"))
        duration = trace.num_cycles * device.instance.clock_scale
        captures = []
        for capture in (Oscilloscope.capture_repetition_list,
                        per_repetition_capture):
            with device.reseeded(7, index):
                scope = Oscilloscope(device.scope_config, device.rng,
                                     device.fault_injector)
                times, samples = capture(
                    scope, device.emitter.continuous(trace), duration, 30)
                faults = device.fault_injector
                captures.append((
                    [np.asarray(row).tobytes() for row in times],
                    [np.asarray(row).tobytes() for row in samples],
                    type(times), scope.last_repetition_stats,
                    device.rng.bit_generator.state,
                    faults and faults.rng.bit_generator.state))
        assert captures[0] == captures[1]
    if plan is not None:
        assert device.fault_injector.counters["drop"] > 0

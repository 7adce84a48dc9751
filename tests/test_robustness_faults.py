"""Tests for fault injection and health gating (repro.robustness).

Everything here is seeded: the same plan + seed must produce the same
fault stream, the same corrupted samples, and the same screening
decisions run after run.
"""

import dataclasses

import numpy as np
import pytest

from repro.hardware import HardwareDevice
from repro.hardware import device as device_module
from repro.robustness import (AcquisitionError, CaptureQualityError,
                              FAULT_KINDS, FaultInjector, FaultPlan,
                              HealthPolicy, assess_capture, clipping_ratio,
                              health, screen_repetitions)
from repro.signal import modulo
from repro.signal.acquisition import Oscilloscope, ScopeConfig
from repro.workloads import RandomProgramBuilder

from .oracles import on_grid


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------

def test_default_plan_is_clean():
    plan = FaultPlan()
    assert not plan.any_active
    injector = FaultInjector(plan)
    times = np.arange(100.0)
    samples = np.ones(100)
    injector.begin_capture()          # never raises on a clean plan
    out_t, out_s = injector.corrupt(times, samples)
    assert np.array_equal(out_t, times)
    assert np.array_equal(out_s, samples)
    assert injector.total_faults() == 0


def test_preset_scales_with_rate():
    plan = FaultPlan.preset(0.2, seed=5)
    assert plan.any_active
    assert plan.trigger_loss_prob == pytest.approx(0.2)
    assert plan.brownout_prob == pytest.approx(0.02)
    assert plan.jitter_spike_prob == pytest.approx(0.1)
    assert "trigger_loss_prob" in plan.describe()
    with pytest.raises(ValueError):
        FaultPlan.preset(1.5)


def test_fault_stream_is_deterministic():
    def run():
        injector = FaultInjector(FaultPlan.preset(0.3, seed=42))
        kills = 0
        collected = []
        rng = np.random.default_rng(0)
        for _ in range(50):
            try:
                injector.begin_capture()
            except AcquisitionError:
                kills += 1
                continue
            times = np.arange(200.0)
            samples = rng.normal(0, 1, 200)
            out_t, out_s = injector.corrupt(times, samples)
            collected.append((out_t.copy(), out_s.copy()))
        return kills, collected, dict(injector.counters)

    kills_a, captures_a, counters_a = run()
    kills_b, captures_b, counters_b = run()
    assert kills_a == kills_b
    assert counters_a == counters_b
    assert len(captures_a) == len(captures_b)
    for (ta, sa), (tb, sb) in zip(captures_a, captures_b):
        assert np.array_equal(ta, tb)
        assert np.array_equal(sa, sb)


def test_all_fault_kinds_fire_at_high_rate():
    injector = FaultInjector(FaultPlan.preset(0.9, seed=7))
    rng = np.random.default_rng(1)
    for _ in range(300):
        try:
            injector.begin_capture()
        except AcquisitionError:
            continue
        injector.corrupt(np.arange(100.0), rng.normal(0, 1, 100))
    for kind in FAULT_KINDS:
        assert injector.counters[kind] > 0, f"{kind} never fired"


def test_brownout_kills_consecutive_captures():
    plan = FaultPlan(brownout_prob=1.0, brownout_captures=3, seed=0)
    injector = FaultInjector(plan)
    for _ in range(3):
        with pytest.raises(AcquisitionError, match="brown-out"):
            injector.begin_capture()
    assert injector.counters["brownout"] == 3


def test_drop_shortens_arrays():
    plan = FaultPlan(drop_rate=0.5, seed=3)
    injector = FaultInjector(plan)
    times, samples = injector.corrupt(np.arange(1000.0), np.ones(1000))
    assert len(times) == len(samples)
    assert 300 < len(samples) < 700


def test_saturation_rails_the_adc():
    plan = FaultPlan(saturation_prob=1.0, saturation_gain=50.0, seed=0)
    config = ScopeConfig()
    scope = Oscilloscope(config, np.random.default_rng(0),
                         injector=FaultInjector(plan))
    _, (samples,) = scope.capture_repetition_list(on_grid(np.sin), 20.0, 1)
    ratio = clipping_ratio(samples, config.adc_range, config.adc_bits)
    assert ratio > 0.5


# ----------------------------------------------------------------------
# scope integration
# ----------------------------------------------------------------------

def test_repetition_list_tallies_losses_without_raising():
    plan = FaultPlan(trigger_loss_prob=0.5, seed=11)
    scope = Oscilloscope(ScopeConfig(), np.random.default_rng(0),
                         injector=FaultInjector(plan))
    times_list, samples_list = scope.capture_repetition_list(
        on_grid(np.sin), 10.0, 40)
    stats = scope.last_repetition_stats
    assert stats.requested == 40
    assert stats.lost == 40 - len(samples_list)
    assert 0 < stats.lost < 40


# ----------------------------------------------------------------------
# health metrics + screening
# ----------------------------------------------------------------------

def _clean_repetitions(count=12, cycles=30, seed=0):
    """Synthesize a repetition stream the screen should fully accept."""
    config = ScopeConfig()
    scope = Oscilloscope(config, np.random.default_rng(seed))
    signal = on_grid(lambda t: np.sin(2 * np.pi * t) +
                     0.3 * np.sin(4 * np.pi * t))
    return scope.capture_repetition_list(signal, float(cycles), count), \
        float(cycles), cycles * 20, config


def test_clean_repetitions_all_pass_screen():
    (times_list, samples_list), period, bins, config = _clean_repetitions()
    screen = screen_repetitions(times_list, samples_list, period=period,
                                num_bins=bins,
                                adc_range=config.adc_range,
                                adc_bits=config.adc_bits)
    assert screen.keep.all()
    assert screen.rejected == 0


def test_screen_rejects_saturated_repetition():
    (times_list, samples_list), period, bins, config = _clean_repetitions()
    samples_list[4] = samples_list[4] * 40.0     # gain surge
    screen = screen_repetitions(times_list, samples_list, period=period,
                                num_bins=bins,
                                adc_range=config.adc_range,
                                adc_bits=config.adc_bits)
    assert not screen.keep[4]
    assert screen.keep.sum() == len(samples_list) - 1
    assert any("rep 4" in reason for reason in screen.reasons)


def test_screen_rejects_misaligned_repetition():
    (times_list, samples_list), period, bins, config = _clean_repetitions()
    times_list[7] = times_list[7] + 0.37          # clock-jitter walk
    screen = screen_repetitions(times_list, samples_list, period=period,
                                num_bins=bins,
                                adc_range=config.adc_range,
                                adc_bits=config.adc_bits)
    assert not screen.keep[7]


def test_assess_capture_scores_clean_stream_as_healthy():
    (times_list, samples_list), period, bins, config = _clean_repetitions()
    quality = assess_capture(np.concatenate(samples_list),
                             np.concatenate(times_list),
                             period=period, num_bins=bins,
                             adc_range=config.adc_range,
                             adc_bits=config.adc_bits,
                             total_repetitions=len(samples_list))
    assert quality.clipping_ratio < 0.01
    assert quality.snr_db > 10.0
    assert quality.alignment_residual < 0.2
    assert HealthPolicy().violations(quality) == []


def test_health_policy_flags_violations():
    quality = assess_capture(np.array([]), np.array([]), period=1.0,
                             num_bins=10, adc_range=4.0, adc_bits=10)
    policy = HealthPolicy()
    violations = policy.violations(quality)
    assert violations
    with pytest.raises(CaptureQualityError) as info:
        policy.check(quality, context="probe_x")
    assert "probe_x" in str(info.value)
    assert info.value.violations == violations


# ----------------------------------------------------------------------
# device integration
# ----------------------------------------------------------------------

def test_device_reference_capture_attaches_quality():
    from repro.core import coverage_groups
    device = HardwareDevice(seed=4)
    group = coverage_groups(group_size=32, seed=9, limit_groups=1)[0]
    measurement = device.capture_reference(group, repetitions=10)
    quality = measurement.quality
    assert quality is not None
    assert quality.total_repetitions == 10
    assert quality.lost_repetitions == 0
    assert HealthPolicy().violations(quality) == []
    # the ideal path stays exact: no quality to gate
    assert device.capture_ideal(group).quality is None


def test_device_with_faults_reports_degraded_capture():
    from repro.core import coverage_groups
    plan = FaultPlan(trigger_loss_prob=0.4, seed=21)
    device = HardwareDevice(seed=4, fault_plan=plan)
    group = coverage_groups(group_size=32, seed=9, limit_groups=1)[0]
    measurement = device.capture_reference(group, repetitions=16)
    assert measurement.quality.lost_repetitions > 0
    assert measurement.quality.clean_repetitions < 16


# ----------------------------------------------------------------------
# fold once
# ----------------------------------------------------------------------

@pytest.mark.parametrize("plan, folds, stage_b_rejects, stacked", [
    (None, 1, False, True),
    # stage B rejects repetition 6, so the kept set is folded again
    (FaultPlan.preset(0.2, seed=4), 2, True, False),
    # stage B rejects repetition 9; the kept rows' bins are folded again
    (FaultPlan(jitter_spike_prob=0.2, seed=0), 2, True, True),
    # dropped samples leave ragged repetitions: no stacked bins
    (FaultPlan(drop_rate=0.05, seed=1), 1, False, False),
], ids=["clean", "preset-0.2", "jitter-spikes", "ragged"])
def test_reference_capture_folds_each_capture_once(monkeypatch, plan, folds,
                                                   stage_b_rejects,
                                                   stacked):
    """The screen's provisional fold is the reference unless stage B
    rejected one of its survivors, and its bins feed any later fold and
    the quality, so an equal-length capture is binned once; either way
    the measurement equals the one folded and binned from scratch."""
    program = RandomProgramBuilder(seed=2).program(24, name="fold")
    calls = []
    binned = []
    screens = []
    fold = health.modulo_average
    bin_offsets = modulo.offset_bins

    def counted_fold(*args, **kwargs):
        calls.append(1)
        return fold(*args, **kwargs)

    def counted_bins(*args, **kwargs):
        binned.append(1)
        return bin_offsets(*args, **kwargs)

    def recorded_screen(*args, **kwargs):
        screens.append(screen_repetitions(*args, **kwargs))
        return screens[-1]

    monkeypatch.setattr(health, "modulo_average", counted_fold)
    monkeypatch.setattr(device_module, "modulo_average", counted_fold)
    monkeypatch.setattr(health, "offset_bins", counted_bins)
    monkeypatch.setattr(modulo, "offset_bins", counted_bins)
    monkeypatch.setattr(device_module, "screen_repetitions",
                        recorded_screen)

    def capture():
        device = HardwareDevice(seed=4, fault_plan=plan)
        return device.capture_reference(program, repetitions=24)

    measurement = capture()
    (screen,) = screens
    assert len(calls) == folds
    assert any("fold residual" in reason
               for reason in screen.reasons) == stage_b_rejects
    assert (screen.reference is None) == stage_b_rejects
    assert (screen.bins is not None) == stacked
    if stacked:
        assert len(binned) == 1
    else:
        # the screen bins its stage-A survivors together, then one by
        # one; the capture bins the kept set for each fold it runs and
        # for its quality
        stage_a_kept = len(screen.keep) - sum(
            "fold residual" not in reason for reason in screen.reasons)
        assert len(binned) == 1 + stage_a_kept + folds

    # today's path: a screen result without its fold and bins
    monkeypatch.setattr(
        device_module, "screen_repetitions",
        lambda *args, **kwargs: dataclasses.replace(
            screen_repetitions(*args, **kwargs), reference=None,
            bins=None))
    folded = capture()
    assert np.array_equal(measurement.signal, folded.signal)
    for field in dataclasses.fields(measurement.quality):
        assert getattr(measurement.quality, field.name) == \
            getattr(folded.quality, field.name), field.name

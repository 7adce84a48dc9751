"""Tests for TVLA and SAVAT (repro.leakage.tvla / savat)."""

import numpy as np
import pytest

from repro.leakage.savat import (SAVAT_INSTRUCTIONS, format_matrix,
                                 savat_matrix, savat_program, savat_value)
from repro.leakage.tvla import TVLAResult, collect_tvla_traces, tvla
from repro.robustness import ProbeError
from repro.uarch import GoldenSimulator, run_program


# ----------------------------------------------------------------------
# Welch t / TVLA
# ----------------------------------------------------------------------
def test_welch_t_zero_for_identical_groups(rng):
    traces = rng.normal(0, 1, size=(20, 50))
    t_values = tvla(traces, traces).t_values
    assert np.allclose(t_values, 0.0)


def test_welch_t_detects_mean_shift(rng):
    group_a = rng.normal(0, 1, size=(200, 30))
    group_b = rng.normal(0, 1, size=(200, 30))
    group_b[:, 10] += 2.0
    t_values = tvla(group_a, group_b).t_values
    assert abs(t_values[10]) > 4.5
    assert np.abs(np.delete(t_values, 10)).max() < 4.5


def test_welch_t_matches_scipy(rng):
    from scipy import stats
    group_a = rng.normal(0, 1, size=(40, 8))
    group_b = rng.normal(0.3, 1.4, size=(55, 8))
    ours = tvla(group_a, group_b).t_values
    theirs = stats.ttest_ind(group_a, group_b, equal_var=False, axis=0)
    assert np.allclose(ours, theirs.statistic, atol=1e-9)


def test_welch_t_validation():
    with pytest.raises(ValueError):
        tvla(np.ones((5, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        tvla(np.ones((1, 3)), np.ones((5, 3)))


def test_welch_t_zero_variance_points():
    group_a = np.ones((5, 4))
    group_b = np.ones((5, 4))
    assert np.allclose(tvla(group_a, group_b).t_values, 0.0)


def test_tvla_result_properties(rng):
    fixed = [rng.normal(0, 1, 100) for _ in range(30)]
    leaky = [rng.normal(0, 1, 100) for _ in range(30)]
    for trace in leaky:
        trace[40:45] += 3.0
    result = tvla(fixed, leaky)
    assert result.leaks
    assert result.max_abs_t > 4.5
    assert 0 < result.leaky_fraction < 1
    per_cycle = result.per_cycle_max(samples_per_cycle=10)
    assert per_cycle.argmax() == 4
    profile = result.phase_profile(samples_per_cycle=10, segments=5)
    assert len(profile) == 5
    assert max(profile) == profile[2]


def test_tvla_no_leak_for_identical_distributions(rng):
    fixed = [rng.normal(0, 1, 60) for _ in range(40)]
    rand = [rng.normal(0, 1, 60) for _ in range(40)]
    result = tvla(fixed, rand)
    assert result.max_abs_t < 6.0  # rarely flags; surely no huge t


def test_collect_tvla_traces_shapes(rng):
    def source(data):
        return np.asarray(data, dtype=float)

    fixed, random_traces = collect_tvla_traces(source, [1, 2, 3, 4],
                                               num_traces=5, rng=rng)
    assert len(fixed) == len(random_traces) == 5
    assert all(np.array_equal(trace, [1, 2, 3, 4]) for trace in fixed)
    assert not all(np.array_equal(random_traces[0], trace)
                   for trace in random_traces[1:])


# ----------------------------------------------------------------------
# SAVAT
# ----------------------------------------------------------------------
def test_savat_program_halts_for_all_pairs():
    for kind_a in SAVAT_INSTRUCTIONS:
        program = savat_program(kind_a, "NOP", repeats=3)
        golden = GoldenSimulator(program)
        golden.run(max_steps=200_000)
        assert golden.halted, kind_a


def test_savat_ldm_always_misses_ldc_always_hits():
    trace, _ = run_program(savat_program("LDM", "LDC", repeats=4))
    events = trace.cache_events
    assert events, "no cache activity recorded"
    # after the warming access, LDC hits and LDM misses
    ldm = [event for event in events if not event.hit]
    ldc = [event for event in events if event.hit]
    assert len(ldm) >= 4 and len(ldc) >= 4


def test_savat_value_zero_for_identical_halves(device):
    program = savat_program("NOP", "NOP", repeats=8)
    measurement = device.capture_ideal(program)
    value = savat_value(measurement.signal, device.samples_per_cycle,
                        measurement.num_cycles, repeats=8)
    program_ab = savat_program("MUL", "NOP", repeats=8)
    measurement_ab = device.capture_ideal(program_ab)
    value_ab = savat_value(measurement_ab.signal,
                           device.samples_per_cycle,
                           measurement_ab.num_cycles, repeats=8)
    assert value_ab > 10 * max(value, 1e-9)


def test_format_matrix_layout():
    matrix = {(a, b): 1.0 for a in SAVAT_INSTRUCTIONS
              for b in SAVAT_INSTRUCTIONS}
    text = format_matrix(matrix)
    lines = text.splitlines()
    assert len(lines) == 7
    assert "LDM" in lines[0] and lines[1].startswith("LDM")


def test_unknown_savat_instruction_rejected():
    with pytest.raises(ValueError):
        savat_program("FMA", "NOP")


def _never_called(program):
    raise AssertionError("an unknown pair must fail before any capture")


@pytest.mark.parametrize("options", [
    {"workers": 1}, {"workers": 2}, {"workers": 1, "item_timeout": 30}],
    ids=["in-process", "pool", "supervised"])
def test_unknown_savat_pair_is_a_probe_error_at_every_worker_count(
        options):
    with pytest.raises(ProbeError, match="FOO"):
        savat_matrix(_never_called, 10, pairs=[("FOO", "NOP")], **options)

"""Unit tests for activity-factor models and the EMSim facade internals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.activity import (average_alpha, stage_design_matrices,
                                 stage_design_matrix, stage_feature_names)
from repro.core.config import EMSimConfig, ModelSwitches
from repro.core.factors import (ALPHA_MAX, AverageActivity,
                                RegressionActivity, UnitActivity)
from repro.core.model import EMSimModel
from repro.core.regression import LinearModel
from repro.core import train_emsim
from repro.isa import Instruction
from repro.leakage import DEFAULT_KEY, aes_program
from repro.leakage.savat import savat_program
from repro.uarch import DEFAULT_CONFIG, STAGES, run_program, stage_bit_count
from repro.uarch.latches import STAGE_REGISTERS
from repro.uarch.replay import record, replay
from repro.workloads import RandomProgramBuilder, nop_padded

from .oracles import full_design_alpha, seed_stage_design_matrix


@pytest.fixture(scope="module")
def trace():
    program = nop_padded([Instruction("mul", rd=5, rs1=8, rs2=9),
                          Instruction("add", rd=6, rs1=5, rs2=5)])
    result, _ = run_program(program)
    return result


def test_unit_activity_is_one(trace):
    model = UnitActivity()
    for stage in STAGES:
        assert np.all(model.alpha(trace, stage) == 1.0)


def test_average_activity_eq7(trace):
    """Eq. 7: alpha = 1 + (flips_new - flips_base)/flips_total."""
    base = {stage: 10.0 for stage in STAGES}
    model = AverageActivity(base_flips=base)
    for stage in STAGES:
        flips = trace.flip_counts(stage).astype(float)
        expected = np.clip(1.0 + (flips - 10.0) / stage_bit_count(stage),
                           0.0, ALPHA_MAX)
        assert np.allclose(model.alpha(trace, stage), expected)


def test_average_alpha_function():
    assert average_alpha(np.array([0.0]), 0.0, "E")[0] == 1.0
    total = stage_bit_count("E")
    assert average_alpha(np.array([float(total)]), 0.0, "E")[0] == 2.0


def test_regression_activity_without_model_defaults_to_one(trace):
    model = RegressionActivity(models={})
    assert np.all(model.alpha(trace, "E") == 1.0)


def test_regression_activity_clips(trace):
    huge = LinearModel(intercept=100.0, coefficients=np.zeros(0),
                       features=np.zeros(0, dtype=int))
    model = RegressionActivity(models={"E": huge})
    assert np.all(model.alpha(trace, "E") == ALPHA_MAX)


def test_stage_design_matrix_layout(trace):
    for stage in STAGES:
        design = stage_design_matrix(trace, stage)
        names = stage_feature_names(stage)
        num_registers = len(STAGE_REGISTERS[stage])
        assert design.shape == (trace.num_cycles, len(names))
        assert names[0].startswith("count:")
        assert names[num_registers].startswith("bit:")
        # count columns equal the sum of their bit columns
        bits = trace.transition_matrix(stage)
        assert np.allclose(design[:, :num_registers].sum(axis=1),
                           bits.sum(axis=1))


def test_model_amplitude_fallbacks():
    config = EMSimConfig()
    model = EMSimModel(config=config,
                       amplitudes={("load", "E"): 0.5,
                                   ("load_mem", "M"): 1.0,
                                   ("load_cache", "M"): 0.4,
                                   ("alu", "E"): 0.3})
    # dynamic load variants fall back to the static load entry early on
    assert model.amplitude("load_mem", "E") == 0.5
    # cache-disabled ablation maps memory loads onto cache hits
    switches = ModelSwitches(model_cache=False)
    assert model.amplitude("load_mem", "M", switches) == 0.4
    # single-source ablation averages a class over stages
    switches = ModelSwitches(per_stage_sources=False)
    assert model.amplitude("alu", "M", switches) == pytest.approx(0.3)
    # unknown class contributes nothing
    assert model.amplitude("system", "E") == 0.0


def test_predict_zeroes_stalled_stages(trace):
    config = EMSimConfig()
    model = EMSimModel(config=config,
                       amplitudes={("muldiv", "E"): 1.0,
                                   ("muldiv_final", "E"): 2.0},
                       floors={stage: 0.1 for stage in STAGES},
                       miso={stage: 1.0 for stage in STAGES})
    with_stalls = model.predict_cycle_amplitudes(trace)
    switches = ModelSwitches(model_stalls=False)
    without = model.predict_cycle_amplitudes(trace, switches=switches)
    stall_cycles = [cycle for cycle, occ in enumerate(trace.occupancy["E"])
                    if occ.kind == "stall" and occ.instr is not None
                    and occ.instr.name == "mul"]
    assert stall_cycles
    for cycle in stall_cycles:
        assert without[cycle] > with_stalls[cycle]


def test_simulator_effective_config_no_cache():
    from repro.core.simulator import EMSim
    model = EMSimModel(config=EMSimConfig())
    simulator = EMSim(model).with_switches(model_cache=False)
    assert simulator._effective_core_config().cache.miss_extra_cycles == 0
    full = EMSim(model)
    assert full._effective_core_config().cache.miss_extra_cycles == 2


# ---------------------------------------------------------------------------
# Eq. 8 from the selected columns == Eq. 8 from the whole design
# ---------------------------------------------------------------------------
def _oracle_traces():
    """AES (scalar and replayed), SAVAT and random-program traces."""
    aes = [aes_program(DEFAULT_KEY, [7 * index + byte for byte in range(16)],
                       rounds=2) for index in range(2)]
    recorded, schedule = record(aes[0], DEFAULT_CONFIG)
    traces = [recorded, replay(schedule, aes[1])]
    traces += [run_program(savat_program(kind_a, kind_b, repeats=2))[0]
               for kind_a, kind_b in (("ADD", "MUL"), ("LDM", "DIV"))]
    builder = RandomProgramBuilder(seed=21)
    traces += [run_program(builder.program(48))[0] for _ in range(3)]
    return traces


def _synthetic_activity():
    """Random feature sets (counts and bits) with random coefficients on
    F, D and E; no selected feature on M; no model on W."""
    rng = np.random.default_rng(8)
    models = {}
    for stage in ("F", "D", "E"):
        width = len(STAGE_REGISTERS[stage]) + stage_bit_count(stage)
        features = np.sort(rng.choice(width, size=min(40, width),
                                      replace=False))
        models[stage] = LinearModel(
            intercept=float(rng.normal()),
            coefficients=0.1 * rng.normal(size=features.size),
            features=features)
    models["M"] = LinearModel(intercept=0.7, coefficients=np.zeros(0),
                              features=np.zeros(0, dtype=int))
    return RegressionActivity(models=models)


def test_selected_column_alpha_equals_full_design_alpha(device):
    traces = _oracle_traces()
    for activity in (_synthetic_activity(),
                     train_emsim(device).regression_activity):
        for trace in traces:
            for stage in STAGES:
                assert np.array_equal(
                    activity.alpha(trace, stage),
                    full_design_alpha(activity, trace, stage)), stage


def test_design_columns_equal_the_seed_design():
    rng = np.random.default_rng(3)
    for trace in _oracle_traces()[::2]:
        for stage in STAGES:
            full = seed_stage_design_matrix(trace, stage)
            assert np.array_equal(stage_design_matrix(trace, stage), full)
            columns = rng.choice(full.shape[1], size=12, replace=False)
            selected = stage_design_matrix(trace, stage, columns=columns)
            assert np.array_equal(selected, full[:, columns])
            assert selected.strides == full[:, columns].strides


@st.composite
def trace_batches(draw):
    """1 to 4 random-program traces; a cycle cap of 0 to 3 (or none)
    gives empty and 1-cycle traces too."""
    traces = []
    for _ in range(draw(st.integers(1, 4))):
        builder = RandomProgramBuilder(seed=draw(st.integers(0, 10 ** 6)))
        program = builder.program(draw(st.integers(1, 24)))
        max_cycles = draw(st.one_of(st.none(), st.integers(0, 3)))
        traces.append(run_program(program, max_cycles=max_cycles)[0])
    return traces


@settings(max_examples=30, deadline=None)
@given(traces=trace_batches(), stage=st.sampled_from(STAGES),
       pick=st.randoms(use_true_random=False))
def test_batched_designs_stack_the_per_trace_seed_designs(traces, stage,
                                                          pick):
    full = np.vstack([seed_stage_design_matrix(trace, stage)
                      for trace in traces])
    batched = stage_design_matrices(traces, stage)
    assert np.array_equal(batched, full)
    assert batched.strides == full.strides
    columns = sorted(pick.sample(range(full.shape[1]), 12))
    selected = stage_design_matrices(traces, stage, columns=columns)
    assert np.array_equal(selected, full[:, columns])
    assert selected.strides == full[:, columns].strides
    # rows= builds only the kept rows (index arrays and boolean masks
    # alike), laid out as NumPy lays out full[:, columns][rows]
    indices = np.array(sorted(pick.sample(range(len(full)),
                                          min(len(full), 6))), dtype=np.intp)
    mask = np.zeros(len(full), dtype=bool)
    mask[indices[::2]] = True
    for chosen, selection in ((None, full), (columns, full[:, columns])):
        for rows in (indices, mask):
            built = stage_design_matrices(traces, stage, columns=chosen,
                                          rows=rows)
            assert np.array_equal(built, selection[rows])
            assert built.strides == selection[rows].strides

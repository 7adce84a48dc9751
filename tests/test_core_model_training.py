"""Integration tests: EMSim training and simulation quality.

These run the full train-then-simulate loop against the synthetic bench
and assert the paper's headline behaviours: high accuracy on held-out
programs, and strictly worse accuracy for every model ablation.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (ABLATIONS, EMSim, EMSimConfig, Trainer,
                        coverage_groups, make_simulator, model_to_dict,
                        train_emsim)
from repro.hardware import HardwareDevice
from repro.signal import simulation_accuracy
from repro.workloads import checksum, dot_product, fibonacci

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def bench():
    device = HardwareDevice()
    model = train_emsim(device)
    simulator = EMSim(model, core_config=device.core_config)
    return device, model, simulator


def _accuracy(device, simulator, program):
    measured = device.capture_ideal(program)
    simulated = simulator.simulate(program)
    length = min(len(measured.signal), len(simulated.signal))
    return simulation_accuracy(simulated.signal[:length],
                               measured.signal[:length],
                               device.samples_per_cycle)


def test_training_produces_complete_model(bench):
    _, model, _ = bench
    classes = {cls for cls, _ in model.amplitudes}
    assert {"alu", "shift", "muldiv", "load", "load_cache", "load_mem",
            "store", "branch", "jump"} <= classes
    assert set(model.floors) == {"F", "D", "E", "M", "W"}
    assert set(model.miso) == {"F", "D", "E", "M", "W"}
    assert model.nop_level > 0
    assert model.trained_on == "de0-cv#0"


def test_stepwise_keeps_minority_of_bits(bench):
    """Paper: step-wise regression removed >65% of the transition bits."""
    _, model, _ = bench
    assert model.regression_activity.selected_fraction() < 0.35


def test_high_accuracy_on_held_out_code(bench):
    device, _, simulator = bench
    group = coverage_groups(group_size=128, seed=901, limit_groups=1)[0]
    assert _accuracy(device, simulator, group) > 0.90
    assert _accuracy(device, simulator, dot_product(8)) > 0.88
    assert _accuracy(device, simulator, fibonacci(8)) > 0.88
    assert _accuracy(device, simulator, checksum(16)) > 0.88


def test_simulated_cycle_count_matches_hardware(bench):
    device, _, simulator = bench
    program = dot_product(6)
    measured = device.capture_ideal(program)
    simulated = simulator.simulate(program)
    assert simulated.num_cycles == measured.num_cycles


def test_every_ablation_hurts(bench):
    device, model, simulator = bench
    group = coverage_groups(group_size=192, seed=902, limit_groups=1)[0]
    full = _accuracy(device, simulator, group)
    for ablation in ABLATIONS:
        if ablation == "full":
            continue
        variant = make_simulator(model, ablation,
                                 core_config=device.core_config)
        assert _accuracy(device, variant, group) < full, ablation


def test_event_ablations_hurt_most(bench):
    """Figs. 5-7: not modeling stalls/cache/mispredicts costs more than
    amplitude-model simplifications on event-heavy code."""
    device, model, simulator = bench
    group = coverage_groups(group_size=192, seed=903, limit_groups=1)[0]
    scores = {}
    for ablation in ("single-source", "avg-alpha", "no-cache",
                     "no-mispredict"):
        variant = make_simulator(model, ablation,
                                 core_config=device.core_config)
        scores[ablation] = _accuracy(device, variant, group)
    assert scores["no-cache"] < scores["single-source"]
    assert scores["no-mispredict"] < scores["avg-alpha"]


def test_unknown_ablation_rejected(bench):
    _, model, _ = bench
    with pytest.raises(ValueError):
        make_simulator(model, "no-physics")


def test_simulate_trace_reuses_existing_trace(bench):
    device, _, simulator = bench
    program = fibonacci(6)
    trace = simulator.run_trace(program)
    first = simulator.simulate_trace(trace)
    second = simulator.simulate(program)
    assert np.allclose(first.amplitudes, second.amplitudes)


def test_model_summary_and_table(bench):
    _, model, _ = bench
    summary = model.summary()
    assert "EMSimModel" in summary and "de0-cv#0" in summary
    table = model.amplitude_table()
    assert "muldiv" in table and "load_mem" in table


def test_trainer_scope_reference_capture():
    """Training through the noisy scope+modulo chain still yields a
    usable model (slower; uses reduced probe counts)."""
    device = HardwareDevice()
    trainer = Trainer(device=device, capture_method="reference",
                      repetitions=60, activity_probes_per_class=6,
                      miso_groups=1, miso_group_size=96,
                      fit_kernel_parameters=False)
    model = trainer.train()
    simulator = EMSim(model, core_config=device.core_config)
    accuracy = _accuracy(device, simulator, dot_product(6))
    assert accuracy > 0.8


def test_report_counts_each_deconvolved_probe_once(monkeypatch):
    """Every probe the trainer captures is deconvolved once, the MISO
    probes included, and the report counts exactly those (the same
    program captured twice counts twice)."""
    import repro.core.training as training

    deconvolved = []
    estimate = training.estimate_cycle_amplitudes

    def spy(signal, *args, **kwargs):
        deconvolved.append(signal)
        return estimate(signal, *args, **kwargs)

    monkeypatch.setattr(training, "estimate_cycle_amplitudes", spy)
    trainer = Trainer(device=HardwareDevice(), activity_probes_per_class=4,
                      miso_groups=1, miso_group_size=32,
                      fit_kernel_parameters=False, seed=11)
    trainer.train()
    # without the kernel fit, every captured probe is deconvolved
    assert len(deconvolved) == trainer.report.acquisition.probes
    assert trainer.report.deconvolution["probes"] == len(deconvolved)


def test_training_twice_gives_the_same_model_and_report():
    """Each ``train()`` call starts from the trainer's seed with a fresh
    report: a second call on the same trainer returns the first call's
    model and report, and the first call's model is a fresh trainer's."""
    def trainer():
        return Trainer(device=HardwareDevice(), activity_probes_per_class=2,
                       miso_groups=1, miso_group_size=32, seed=11)

    again = trainer()
    runs = []
    for _ in range(2):
        model = model_to_dict(again.train())
        runs.append((model, again.report.summary(),
                     again.report.acquisition.probes,
                     again.report.deconvolution))
    assert runs[0] == runs[1]
    assert runs[0][0] == model_to_dict(trainer().train())


def test_config_switch_helpers():
    config = EMSimConfig()
    ablated = config.with_switches(model_stalls=False)
    assert not ablated.switches.model_stalls
    assert config.switches.model_stalls
    assert "no-stall" in ablated.switches.describe()
    assert config.switches.describe() == "full"


def test_fast_and_legacy_fits_are_bit_identical():
    """The Gram/sweep + Lance-Williams + trace-cache fit must reproduce
    the seed's scalar model-building path exactly (same features, same
    Table-I clusters, same coefficients), on a cold and a warm trace
    cache.  The scalar path's model is frozen in ``tests/data``."""
    from repro.core.persistence import model_to_dict
    from repro.core.trace_cache import configure_trace_cache

    legacy = json.loads((DATA / "legacy_fit_model.json").read_text())
    configure_trace_cache(clear=True)
    cold = model_to_dict(Trainer(device=HardwareDevice(),
                                 activity_probes_per_class=2,
                                 seed=0).train())
    warm = model_to_dict(Trainer(device=HardwareDevice(),
                                 activity_probes_per_class=2,
                                 seed=0).train())
    assert cold == warm
    assert json.loads(json.dumps(cold)) == legacy

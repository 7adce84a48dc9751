"""Results are a pure function of inputs, configuration and seed.

Every worker count runs the same capture and deconvolution engine, so a
measurement campaign, a scope-captured training run and an AES TVLA
through EMSim are bit-identical whether they run in-process
(``workers=1``) or in a forked pool (``workers=2``; a generous
``item_timeout`` forces the pool even on a single-CPU host), and a
campaign journal written at one worker count replays every probe at
another.  The AES TVLA is also bit-identical in every trace-cache state:
disabled, cold (EMSim records and replays the AES schedule), warm, and
served from the disk layer.
"""

import numpy as np
import pytest

from repro.core import (EMSim, Trainer, configure_trace_cache,
                        get_trace_cache, measurement_campaign,
                        model_to_dict, trace_cache_disabled)
from repro.core.batch import supervised_campaign
from repro.hardware import HardwareDevice
from repro.leakage import DEFAULT_KEY, aes, aes_program
from repro.leakage.streaming import collect_streaming_tvla
from repro.robustness import FaultPlan
from repro.robustness.checkpoint import CheckpointJournal
from repro.workloads import RandomProgramBuilder

POOL_TIMEOUT = 600.0
"""Per-item deadline that forces a worker pool but never fires."""

RUNS = {1: {}, 2: {"item_timeout": POOL_TIMEOUT}}
"""Worker count -> extra keyword arguments of that run."""


def _programs(count, length=24, seed=5):
    builder = RandomProgramBuilder(seed=seed)
    return [builder.program(length, name=f"prog_{i:03d}")
            for i in range(count)]


def _assert_probes_identical(left, right):
    assert [probe.program_name for probe in left] == \
        [probe.program_name for probe in right]
    for a, b in zip(left, right):
        assert np.array_equal(a.signal, b.signal)
        assert np.array_equal(a.amplitudes, b.amplitudes)


@pytest.mark.parametrize("fault_rate", [0.0, 0.25])
def test_campaign_probes_identical_at_one_and_two_workers(fault_rate):
    programs = _programs(4)
    runs = []
    for workers, extra in RUNS.items():
        plan = FaultPlan.preset(fault_rate, seed=7) if fault_rate else None
        runs.append(measurement_campaign(
            HardwareDevice(seed=3, fault_plan=plan), programs,
            repetitions=12, workers=workers, seed=9, **extra))
    _assert_probes_identical(*runs)


def test_reference_trainer_identical_at_one_and_two_workers():
    models = []
    for workers, extra in RUNS.items():
        trainer = Trainer(device=HardwareDevice(seed=3),
                          capture_method="reference", repetitions=12,
                          activity_probes_per_class=2, miso_groups=1,
                          miso_group_size=32, fit_kernel_parameters=False,
                          seed=11, workers=workers, **extra)
        models.append(model_to_dict(trainer.train()))
    assert models[0] == models[1]


def test_journal_written_at_one_worker_resumes_at_two(tmp_path):
    programs = _programs(4)
    path = str(tmp_path / "campaign.jsonl")
    written = measurement_campaign(HardwareDevice(seed=3), programs,
                                   repetitions=12, workers=1, seed=9,
                                   checkpoint=path)
    with CheckpointJournal(path, resume=True) as journal:
        replayed, ledger = supervised_campaign(
            HardwareDevice(seed=3), programs, repetitions=12, workers=2,
            seed=9, journal=journal, **RUNS[2])
    assert ledger.resumed == list(range(len(programs)))
    _assert_probes_identical(written, replayed)


@pytest.fixture(scope="module")
def aes_simulator():
    device = HardwareDevice(seed=3)
    model = Trainer(device=device, activity_probes_per_class=2,
                    miso_groups=1, miso_group_size=32,
                    fit_kernel_parameters=False, seed=11).train()
    return EMSim(model, core_config=device.core_config)


def _aes_tvla(simulator, workers, extra):
    """t-values of a 2-round AES TVLA through ``simulator``."""

    def source(plaintext):
        program = aes_program(DEFAULT_KEY, plaintext, rounds=2)
        return simulator.simulate(program).signal

    # every run (each pool worker, at workers=2) assembles its own AES
    # template
    aes._aes_template.cache_clear()
    return collect_streaming_tvla(
        source, list(range(16)), 3, np.random.default_rng(4),
        workers=workers, **extra).t_values


def test_aes_tvla_identical_at_one_and_two_workers(aes_simulator):
    t_values = [_aes_tvla(aes_simulator, workers, extra)
                for workers, extra in RUNS.items()]
    assert t_values[0].shape == t_values[1].shape
    assert t_values[0].tobytes() == t_values[1].tobytes()


def test_aes_tvla_identical_in_every_cache_state(aes_simulator, tmp_path):
    def cold():
        configure_trace_cache(clear=True)

    def warm():
        cold()
        _aes_tvla(aes_simulator, 1, {})

    def disk():
        configure_trace_cache(directory=str(tmp_path), clear=True)
        _aes_tvla(aes_simulator, 1, {})
        configure_trace_cache(clear=True)

    t_values = {}
    try:
        for workers, extra in RUNS.items():
            with trace_cache_disabled():
                t_values["disabled", workers] = _aes_tvla(
                    aes_simulator, workers, extra)
            for state, prepare in (("cold", cold), ("warm", warm),
                                   ("disk", disk)):
                prepare()
                disk_hits = get_trace_cache().stats.disk_hits
                t_values[state, workers] = _aes_tvla(aes_simulator,
                                                     workers, extra)
                if state == "disk" and workers == 1:
                    assert get_trace_cache().stats.disk_hits > disk_hits
    finally:
        configure_trace_cache(directory="", enabled=True, clear=True)
    assert len(t_values) == 8
    assert len({values.tobytes() for values in t_values.values()}) == 1

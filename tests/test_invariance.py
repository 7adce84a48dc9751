"""Results are a pure function of inputs, configuration and seed.

Every worker count runs the same capture and deconvolution engine, so a
measurement campaign, a scope-captured training run, an AES TVLA
through EMSim and the Table II SAVAT matrix (simulated and
ideal-captured) are bit-identical whether they run in-process
(``workers=1``) or in a forked pool (``workers=2``; a generous
``item_timeout`` forces the pool even on a single-CPU host), and a
campaign journal written at one worker count replays every probe at
another.  The AES TVLA is also bit-identical in every trace-cache state:
disabled, cold (EMSim records and replays the AES schedule), warm, and
served from the disk layer.  So are SAVAT values, simulated and
ideal-captured, whichever side runs a program's core first, and
campaign probes, clean and faulted, in every trace-cache state crossed
with every state of the emitter's phase tables (cold, or warm from a
longer or a shorter probe).  A campaign or a reference-capture training
run also leaves the caller's device as it found it, so a later capture
on it does not depend on the worker count, and a trainer trained twice
returns the same model.  TVLA collection and the SAVAT sweep also fail
alike at both worker counts: a trace source that fails once is retried
to the same outputs, and one that always fails raises
``CampaignError``.
"""

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.core import (EMSim, Trainer, configure_trace_cache,
                        get_trace_cache, measurement_campaign,
                        model_to_dict, trace_cache_disabled)
from repro.core.batch import supervised_campaign
from repro.hardware import HardwareDevice
from repro.leakage import (DEFAULT_KEY, SimulatorSignalSource, aes,
                           aes_program, savat_matrix)
from repro.leakage.streaming import collect_streaming_tvla
from repro.leakage.tvla import collect_tvla_traces
from repro.robustness import CampaignError, FaultPlan
from repro.robustness.checkpoint import CheckpointJournal
from repro.signal.reconstruction import clear_plan_caches
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


def _later_capture(device, program):
    return device.capture_reference(program, repetitions=8).signal.tobytes()


def test_a_campaign_leaves_the_callers_device_as_it_found_it():
    programs = _programs(3)
    plan = FaultPlan.preset(0.25, seed=7)
    untouched = _later_capture(HardwareDevice(seed=3, fault_plan=plan),
                               programs[0])
    for workers, extra in RUNS.items():
        device = HardwareDevice(seed=3, fault_plan=plan)
        measurement_campaign(device, programs, repetitions=8,
                             workers=workers, seed=5, **extra)
        assert _later_capture(device, programs[0]) == untouched


def test_a_reference_training_run_leaves_later_captures_alone():
    """Every trainer probe, the kernel-fit and NOP-baseline ones
    included, captures from its own streams, so the device's stream is
    where it started, at every worker count alike."""
    program = _programs(1)[0]
    untouched = _later_capture(HardwareDevice(seed=3), program)
    for workers, extra in RUNS.items():
        device = HardwareDevice(seed=3)
        Trainer(device=device, capture_method="reference", repetitions=12,
                activity_probes_per_class=2, miso_groups=1,
                miso_group_size=32, seed=11, workers=workers,
                **extra).train()
        assert _later_capture(device, program) == untouched


@pytest.mark.parametrize("workers", sorted(RUNS))
def test_a_reference_trainer_trained_twice_repeats_its_model(workers):
    trainer = Trainer(device=HardwareDevice(seed=3),
                      capture_method="reference", repetitions=12,
                      activity_probes_per_class=2, miso_groups=1,
                      miso_group_size=32, seed=11, workers=workers,
                      **RUNS[workers])
    models = []
    for _ in range(2):
        model = model_to_dict(trainer.train())
        model.pop("checksum")
        models.append(model)
    assert models[0] == models[1]


def _campaign_signature(probes):
    return [(probe.program_name, probe.signal.tobytes(),
             probe.amplitudes.tobytes(), repr(probe.quality))
            for probe in probes]


@pytest.mark.parametrize("fault_rate", [0.0, 0.25])
def test_campaign_probes_identical_in_every_cache_state(fault_rate,
                                                        tmp_path):
    """Every trace-cache state (disabled, cold, warm, disk) crossed with
    every phase-table state (cold, or warm from one capture of a longer
    or a shorter probe, which the campaign's grids then slice or
    regrow), at workers 1 and 2."""
    programs = _programs(4)
    plan = FaultPlan.preset(fault_rate, seed=7) if fault_rate else None

    def campaign(workers=1, extra=None):
        return _campaign_signature(measurement_campaign(
            HardwareDevice(seed=3, fault_plan=plan), programs,
            repetitions=12, workers=workers, seed=9, **(extra or {})))

    def trace_state(state):
        if state == "disk":
            configure_trace_cache(directory=str(tmp_path), clear=True)
            campaign()
            configure_trace_cache(clear=True)
            return
        configure_trace_cache(directory="", clear=True)
        if state == "warm":
            campaign()

    def phase_state(state):
        clear_plan_caches()
        if state != "cold":
            length = 96 if state == "longer" else 6
            probe = RandomProgramBuilder(seed=length).program(
                length, name=f"{state}_probe")
            HardwareDevice(seed=1).capture_reference(probe, repetitions=3)

    signatures = {}
    try:
        for workers, extra in RUNS.items():
            for trace in ("disabled", "cold", "warm", "disk"):
                for phases in ("cold", "longer", "shorter"):
                    if trace == "disabled":
                        configure_trace_cache(directory="", clear=True)
                        phase_state(phases)
                        with trace_cache_disabled():
                            signatures[workers, trace, phases] = campaign(
                                workers, extra)
                        continue
                    trace_state(trace)
                    phase_state(phases)
                    disk_hits = get_trace_cache().stats.disk_hits
                    signatures[workers, trace, phases] = campaign(
                        workers, extra)
                    if trace == "disk" and workers == 1:
                        assert get_trace_cache().stats.disk_hits > disk_hits
    finally:
        configure_trace_cache(directory="", enabled=True, clear=True)
        clear_plan_caches()
    assert len(signatures) == 24
    reference = signatures[1, "cold", "cold"]
    assert all(signature == reference for signature in signatures.values())


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


@dataclass
class IdealCaptureSource:
    """``program -> (signal, cycles)`` over a device's ideal capture."""

    device: HardwareDevice

    def __call__(self, program):
        measurement = self.device.capture_ideal(program)
        return measurement.signal, measurement.num_cycles


def test_savat_matrix_identical_at_one_and_two_workers(aes_simulator):
    device = HardwareDevice(seed=3)
    for source in (SimulatorSignalSource(aes_simulator),
                   IdealCaptureSource(device)):
        matrices = [savat_matrix(source, device.samples_per_cycle,
                                 workers=workers, **extra)
                    for workers, extra in RUNS.items()]
        assert list(matrices[0]) == list(matrices[1])
        assert np.array(list(matrices[0].values())).tobytes() == \
            np.array(list(matrices[1].values())).tobytes()


SAVAT_PAIRS = [("LDM", "ADD"), ("LDC", "DIV"), ("NOP", "MUL")]


def test_savat_identical_in_every_cache_state(aes_simulator, tmp_path):
    device = HardwareDevice(seed=3)
    sources = {"S": SimulatorSignalSource(aes_simulator),
               "R": IdealCaptureSource(device)}

    def sweep(order):
        """Both columns over SAVAT_PAIRS, the ``order`` column first
        ("SR" as the benchmark runs, "RS" as the Table II bench)."""
        matrices = {column: savat_matrix(sources[column],
                                         device.samples_per_cycle,
                                         pairs=SAVAT_PAIRS)
                    for column in order}
        return np.array([[matrices[column][pair] for pair in SAVAT_PAIRS]
                         for column in "SR"])

    def cold(order):
        configure_trace_cache(clear=True)

    def warm(order):
        cold(order)
        sweep(order)

    def disk(order):
        configure_trace_cache(directory=str(tmp_path / order), clear=True)
        sweep(order)
        configure_trace_cache(clear=True)

    values = {}
    try:
        for order in ("SR", "RS"):
            with trace_cache_disabled():
                values["disabled", order] = sweep(order)
            for state, prepare in (("cold", cold), ("warm", warm),
                                   ("disk", disk)):
                prepare(order)
                disk_hits = get_trace_cache().stats.disk_hits
                values[state, order] = sweep(order)
                if state == "disk":
                    assert get_trace_cache().stats.disk_hits > disk_hits
    finally:
        configure_trace_cache(directory="", enabled=True, clear=True)
    assert len(values) == 8
    assert len({array.tobytes() for array in values.values()}) == 1
    assert np.all(values["cold", "SR"][:, 0] > 0)


@dataclass
class FlakySource:
    """A trace or signal source whose first call fails.

    Pool workers share no memory, so the failing call is the one that
    creates ``marker`` (atomically); every later call runs ``source``.
    With ``always`` every call fails.
    """

    source: Callable
    marker: str
    always: bool = False

    def __call__(self, value):
        if self.always:
            raise RuntimeError("this source always fails")
        try:
            os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return self.source(value)
        raise RuntimeError("the first call fails")


def _input_trace(value):
    """A deterministic 32-sample trace of one TVLA input."""
    return np.sin(np.arange(32) * (1 + sum(value) % 5)) + value[0] / 255


def _assert_failures_independent_of_workers(tmp_path, run):
    """``run(source, workers, extra)`` gives the same outputs at both
    worker counts with a source that fails once (which it retries),
    and raises ``CampaignError`` (exit code 18) at both with a source
    that always fails."""
    outputs = []
    for workers, extra in RUNS.items():
        marker = str(tmp_path / f"failed_w{workers}")
        outputs.append(run(marker, False, workers, extra))
        assert os.path.exists(marker)
    assert outputs[0].shape == outputs[1].shape
    assert outputs[0].tobytes() == outputs[1].tobytes()
    for workers, extra in RUNS.items():
        with pytest.raises(CampaignError) as excinfo:
            run(str(tmp_path / "unused"), True, workers, extra)
        assert excinfo.value.exit_code == 18


def test_tvla_collection_failures_independent_of_worker_count(tmp_path):
    def run(marker, always, workers, extra):
        fixed, random = collect_tvla_traces(
            FlakySource(_input_trace, marker, always), list(range(16)), 3,
            np.random.default_rng(4), workers=workers, **extra)
        return np.array(fixed + random)

    _assert_failures_independent_of_workers(tmp_path, run)


def test_streaming_tvla_failures_independent_of_worker_count(tmp_path):
    def run(marker, always, workers, extra):
        return collect_streaming_tvla(
            FlakySource(_input_trace, marker, always), list(range(16)), 3,
            np.random.default_rng(4), workers=workers, **extra).t_values

    _assert_failures_independent_of_workers(tmp_path, run)


def test_savat_failures_independent_of_worker_count(tmp_path):
    device = HardwareDevice(seed=3)

    def run(marker, always, workers, extra):
        matrix = savat_matrix(
            FlakySource(IdealCaptureSource(device), marker, always),
            device.samples_per_cycle, pairs=SAVAT_PAIRS, workers=workers,
            **extra)
        return np.array([matrix[pair] for pair in SAVAT_PAIRS])

    _assert_failures_independent_of_workers(tmp_path, run)

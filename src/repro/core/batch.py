"""Supervised measurement campaigns on a device bench.

:func:`measurement_campaign` captures many probe programs and
deconvolves their per-cycle amplitudes (model validation, Fig. 8-style
sweeps, TVLA corpora) as one ordered fan-out over
:func:`~repro.parallel.supervised_map`: probes go to a process pool
when ``workers > 1`` or an item timeout is set (falling back to an
in-process loop on single-CPU machines without a timeout), every probe
is reseeded from ``(campaign seed, probe index)``, and every worker
count runs the same engine (the emitter's grid evaluator, the
vectorized repetition capture, and the plan-cached banded
deconvolver).  Results are therefore bit-identical at any worker count,
and so are checkpoint keys: a journal written at one worker count
resumes at another.  Re-simulating many programs is
:meth:`~repro.core.simulator.EMSim.simulate_many`.

Campaigns sit on top of the content-addressed trace cache
(:mod:`repro.core.trace_cache`): the device's
``run_trace``/``capture_reference`` serve repeated (program, config)
pairs from cache, so campaigns that replay a corpus — or repeat
programs within one — skip the pipeline re-execution.  Worker processes
each hold their own process-local cache (the parent's entries are
inherited by fork at spawn time); determinism is unaffected because
cached traces are bit-identical to fresh runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from ..hardware.device import HardwareDevice
from ..isa.program import Program
from ..observability import get_metrics, get_tracer, record_campaign
from ..parallel import CampaignLedger, resolve_workers, supervised_map
from ..robustness.checkpoint import CheckpointJournal, open_journal
from ..robustness.health import CaptureQuality
from ..signal.kernels import DEFAULT_KERNEL, Kernel
from ..signal.reconstruction import estimate_cycle_amplitudes
from .trace_cache import trace_key

__all__ = ["CampaignProbe", "campaign_probe_key", "measurement_campaign",
           "supervised_campaign"]


@dataclass
class CampaignProbe:
    """One probe's result from a measurement campaign.

    Carries the folded reference and its deconvolved per-cycle
    amplitudes but deliberately *not* the activity trace — campaign
    consumers (benchmarks, leakage sweeps) work on signals, and traces
    are the costly part of shipping results across process boundaries.
    """

    index: int
    program_name: str
    signal: np.ndarray
    amplitudes: np.ndarray
    quality: Optional[CaptureQuality] = None


def _campaign_item(device: HardwareDevice, seed: int, repetitions: int,
                   max_cycles: Optional[int], kernel: Kernel,
                   samples_per_cycle: int, item) -> CampaignProbe:
    """Capture + deconvolve one indexed probe program.

    The device captures from streams reseeded from ``(campaign seed,
    probe index)`` (the scope at stream 0, the fault injector at stream
    1), so the probe's result is a pure function of the campaign seed
    and its position — independent of worker count, chunking, or who
    captured the previous probe — and the device gets its own streams
    back afterwards.
    """
    index, program = item
    tracer = get_tracer()
    with tracer.span("campaign.capture"), device.reseeded(seed, index):
        measurement = device.capture_reference(
            program, repetitions=repetitions, max_cycles=max_cycles)
    with tracer.span("campaign.deconvolve"):
        amplitudes = estimate_cycle_amplitudes(
            measurement.signal, kernel, samples_per_cycle)
    return CampaignProbe(index=index, program_name=measurement.program_name,
                         signal=measurement.signal, amplitudes=amplitudes,
                         quality=measurement.quality)


def campaign_probe_key(device: HardwareDevice, program: Program,
                       index: int, seed: int, repetitions: int,
                       kernel: Kernel, samples_per_cycle: int,
                       max_cycles: Optional[int]) -> str:
    """Checkpoint key for one campaign probe.

    Built on :func:`~repro.core.trace_cache.trace_key` — the same
    content hash the trace cache uses for the program/config pair —
    salted with everything else that determines the probe's result:
    campaign seed, probe index, repetition count, kernel, sample rate,
    the device's emitter digest, and its scope: the scope config, the
    fault plan and the auto-range switch (frozen dataclasses and a bool,
    so their reprs are stable).  Worker count is not an input: a resumed
    campaign reuses a journaled probe at any worker count, because
    rerunning it would be bit-identical anyway.
    """
    salt = (f"campaign:{seed}:{index}:{repetitions}:{kernel!r}:"
            f"{samples_per_cycle}:{device.name}:"
            f"{device._emitter_digest}:{device.scope_config!r}:"
            f"{device.fault_plan!r}:{device.auto_range}")
    return trace_key(program, device.core_config,
                     core_kind=device.core_kind, max_cycles=max_cycles,
                     salt=salt)


def supervised_campaign(device: HardwareDevice,
                        programs: Sequence[Program],
                        repetitions: int = 50,
                        workers: int = 1,
                        seed: int = 0,
                        kernel: Kernel = DEFAULT_KERNEL,
                        samples_per_cycle: Optional[int] = None,
                        max_cycles: Optional[int] = None,
                        item_timeout: Optional[float] = None,
                        max_item_retries: int = 2,
                        journal: Optional[CheckpointJournal] = None,
                        ) -> "tuple[List[Optional[CampaignProbe]], CampaignLedger]":
    """Supervised measurement campaign: ``(probes, ledger)``.

    The crash-safe core of :func:`measurement_campaign`: probes fan out
    through :func:`~repro.parallel.supervised_map`, so hung workers are
    killed at ``item_timeout``, crashed workers indict only the probe
    they were running, failures retry, and probes that exhaust
    ``max_item_retries`` leave a ``None`` slot plus a ledger row
    instead of sinking the campaign.  With a ``journal``,
    completed probes are checkpointed under :func:`campaign_probe_key`
    and a resumed run replays them bit-identically without capturing.
    """
    programs = list(programs)
    effective = resolve_workers(workers)
    if samples_per_cycle is None:
        samples_per_cycle = device.samples_per_cycle

    def key_for(index: int, item) -> str:
        _, program = item
        return campaign_probe_key(device, program, index, seed,
                                  repetitions, kernel, samples_per_cycle,
                                  max_cycles)

    meta = {"campaign": "measurement", "device": device.name,
            "seed": int(seed), "repetitions": int(repetitions),
            "programs": len(programs), "workers": effective}
    with record_campaign("measurement", meta) as recording:
        with get_tracer().span("campaign.measurement",
                               programs=len(programs), workers=effective):
            probes, ledger = supervised_map(
                partial(_campaign_item, device, seed, repetitions,
                        max_cycles, kernel, samples_per_cycle),
                list(enumerate(programs)), workers=workers,
                timeout=item_timeout, max_item_retries=max_item_retries,
                journal=journal, key_for=key_for)
        recording.ledger(ledger)
        recording.checkpoint(getattr(journal, "path", None))
    get_metrics().increment("campaign.programs", len(probes))
    return probes, ledger


def measurement_campaign(device: HardwareDevice,
                         programs: Sequence[Program],
                         repetitions: int = 50,
                         workers: int = 1,
                         seed: int = 0,
                         kernel: Kernel = DEFAULT_KERNEL,
                         samples_per_cycle: Optional[int] = None,
                         max_cycles: Optional[int] = None,
                         item_timeout: Optional[float] = None,
                         max_item_retries: int = 2,
                         checkpoint: Optional[str] = None,
                         resume: bool = False) -> List[CampaignProbe]:
    """Capture and deconvolve every program on a device bench.

    The Fig. 8-style campaign primitive: each probe runs the
    scope+modulo reference capture and a per-cycle amplitude
    deconvolution, with per-probe deterministic reseeding (see
    :func:`_campaign_item`).  ``workers > 1`` fans the probes out over
    (up to) that many worker processes; on machines with fewer CPUs the
    pool shrinks to the CPU count.  The engine is the same at every
    worker count, so the probes are bit-identical whatever ``workers``
    is.

    Supervision (see :func:`supervised_campaign` for the mechanics):
    ``item_timeout`` bounds each probe's wall clock, failed probes
    retry up to ``max_item_retries`` times, and ``checkpoint`` names a
    journal file that makes the campaign resumable (``resume=True``
    replays completed probes from it).
    This function needs *every* probe, so items still missing after
    supervision raise :class:`~repro.robustness.errors.CampaignError`
    (exit code 18) naming the quarantined indices.
    """
    programs = list(programs)  # generators must not be consumed twice
    meta = {"campaign": "measurement", "device": device.name,
            "seed": int(seed), "repetitions": int(repetitions),
            "programs": len(programs)}
    with open_journal(checkpoint, meta, resume) as journal:
        probes, ledger = supervised_campaign(
            device, programs, repetitions=repetitions, workers=workers,
            seed=seed, kernel=kernel, samples_per_cycle=samples_per_cycle,
            max_cycles=max_cycles, item_timeout=item_timeout,
            max_item_retries=max_item_retries, journal=journal)
    ledger.require_complete("measurement campaign", "probes")
    return probes

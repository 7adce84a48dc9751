"""The EMSim facade: program in, simulated EM side-channel signal out.

Integrates the trained :class:`~repro.core.model.EMSimModel` with the
cycle-accurate core — the paper's vision of EMSim "integrated into a
cycle-accurate simulator" usable by hardware/software/compiler developers
without any measurement equipment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..isa.program import Program
from ..observability.metrics import get_metrics
from ..observability.tracer import get_tracer
from ..robustness.errors import ConfigurationError
from ..signal.reconstruction import reconstruct
from ..uarch.config import CoreConfig, DEFAULT_CONFIG
from ..uarch.oracle import collect_oracle
from ..uarch.pipeline import Pipeline
from ..uarch.replay import Schedule, record, replay
from ..uarch.trace import ActivityTrace
from .config import ModelSwitches
from .model import EMSimModel
from .trace_cache import code_family_key, get_trace_cache

_SEEN_ONCE = "seen-once"
"""Code-family mark: one miss of the family ran the plain scalar core."""


@dataclass
class SimulatedSignal:
    """EMSim output for one program run."""

    amplitudes: np.ndarray        # per-cycle predicted amplitudes X[n]
    signal: np.ndarray            # reconstructed analog waveform
    trace: ActivityTrace
    samples_per_cycle: int

    @property
    def num_cycles(self) -> int:
        """Simulated clock cycles."""
        return len(self.amplitudes)


class EMSim:
    """A trained EM side-channel simulator for one device design."""

    def __init__(self, model: EMSimModel,
                 core_config: CoreConfig = DEFAULT_CONFIG,
                 switches: Optional[ModelSwitches] = None,
                 core_kind: str = "in-order"):
        if core_kind not in ("in-order", "out-of-order"):
            raise ConfigurationError(f"unknown core kind: {core_kind!r}")
        self.model = model
        self.core_config = core_config
        self.switches = switches or model.config.switches
        self.core_kind = core_kind

    # ------------------------------------------------------------------
    def _effective_core_config(self) -> CoreConfig:
        """Core configuration as seen by the (possibly ablated) model.

        Disabling cache modeling means EMSim's internal timing model
        believes every access is a hit (Fig. 6 bottom); misprediction
        modeling off means EMSim's fetch is oracle-perfect (Fig. 7).
        """
        config = self.core_config
        if not self.switches.model_cache:
            config = replace(config,
                             cache=replace(config.cache,
                                           miss_extra_cycles=0))
        return config

    def run_trace(self, program: Program,
                  max_cycles: Optional[int] = None) -> ActivityTrace:
        """Run the program on EMSim's internal microarchitecture model.

        Traces are served from the content-addressed trace cache: the
        key covers the *effective* (ablation-adjusted) core config plus
        the mispredict-ablation flag, so each switch combination caches
        independently and ablation sweeps never cross-contaminate.  A
        miss on the in-order core may replay a recorded schedule (see
        :meth:`_run_in_order`).
        """
        config = self._effective_core_config()
        salt = f"sim:mispredicts={self.switches.model_mispredicts}"

        def runner() -> ActivityTrace:
            with get_tracer().span("sim.trace"):
                return self._run_trace_uncached(program, config,
                                                max_cycles, salt)

        return get_trace_cache().get_or_run(
            program, config, runner, core_kind=self.core_kind,
            max_cycles=max_cycles, salt=salt, category="sim")

    def _run_trace_uncached(self, program: Program, config: CoreConfig,
                            max_cycles: Optional[int],
                            salt: str) -> ActivityTrace:
        """The actual core execution behind :meth:`run_trace`."""
        if self.core_kind == "out-of-order":
            from ..uarch.ooo import OutOfOrderCore
            if not self.switches.model_mispredicts:
                raise ConfigurationError(
                    "the no-mispredict ablation is only implemented "
                    "for the in-order core")
            core = OutOfOrderCore(program, config=config)
            return core.run(max_cycles=max_cycles)
        if not self.switches.model_mispredicts:
            core = Pipeline(program, config=config,
                            oracle=collect_oracle(program))
            return core.run(max_cycles=max_cycles)
        return self._run_in_order(program, config, max_cycles, salt)

    def _run_in_order(self, program: Program, config: CoreConfig,
                      max_cycles: Optional[int],
                      salt: str) -> ActivityTrace:
        """The in-order core, replaying its schedule across data images.

        Programs with the same code and settings form a code family
        (:func:`~repro.core.trace_cache.code_family_key`).  The family's
        first trace-cache miss runs the scalar core as it is, the second
        runs it with a schedule recorder, and later misses replay that
        schedule over their own data image
        (:func:`repro.uarch.replay.replay`), which is bit-identical to
        the scalar core.  A replay that diverges from the schedule falls
        back to the scalar core.  The family entries live in the trace
        cache's memory, so a disabled cache never replays.
        """
        cache = get_trace_cache()
        family = code_family_key(program, config, max_cycles=max_cycles,
                                 salt=salt)
        entry = cache.family(family)
        if isinstance(entry, Schedule):
            trace = replay(entry, program)
            if trace is not None:
                get_metrics().increment("trace_cache.sim.replays")
                return trace
            get_metrics().increment("trace_cache.sim.replay_fallbacks")
        elif entry is _SEEN_ONCE:
            trace, schedule = record(program, config, max_cycles)
            cache.remember_family(family, schedule)
            return trace
        else:
            cache.remember_family(family, _SEEN_ONCE)
        return Pipeline(program, config=config).run(max_cycles=max_cycles)

    def simulate_trace(self, trace: ActivityTrace) -> SimulatedSignal:
        """Predict the signal for an existing activity trace."""
        tracer = get_tracer()
        with tracer.span("sim.predict"):
            amplitudes = self.model.predict_cycle_amplitudes(
                trace, switches=self.switches)
        samples_per_cycle = self.model.config.samples_per_cycle
        with tracer.span("sim.reconstruct"):
            signal = reconstruct(amplitudes, self.model.config.kernel,
                                 samples_per_cycle)
        return SimulatedSignal(amplitudes=amplitudes, signal=signal,
                               trace=trace,
                               samples_per_cycle=samples_per_cycle)

    def simulate(self, program: Program,
                 max_cycles: Optional[int] = None) -> SimulatedSignal:
        """Full flow: execute the program, predict its EM signal."""
        return self.simulate_trace(self.run_trace(program,
                                                  max_cycles=max_cycles))

    def simulate_many(self, programs: Sequence[Program],
                      max_cycles: Optional[int] = None,
                      workers: int = 1) -> List["SimulatedSignal"]:
        """Simulate many programs through the re-simulation fan-out.

        Convenience wrapper around
        :class:`~repro.core.batch.BatchSimulator`: traces and per-cycle
        amplitude predictions run per program (optionally on a worker
        pool), and the waveform reconstructions share one cached kernel
        response.  Results are in input order and numerically identical
        to calling :meth:`simulate` per program.
        """
        from .batch import BatchSimulator
        return BatchSimulator(self, workers=workers).simulate_many(
            programs, max_cycles=max_cycles)

    def with_switches(self, **flags: bool) -> "EMSim":
        """A variant simulator with some model switches toggled."""
        return EMSim(self.model, core_config=self.core_config,
                     switches=replace(self.switches, **flags),
                     core_kind=self.core_kind)

"""The EMSim facade: program in, simulated EM side-channel signal out.

Integrates the trained :class:`~repro.core.model.EMSimModel` with the
cycle-accurate core — the paper's vision of EMSim "integrated into a
cycle-accurate simulator" usable by hardware/software/compiler developers
without any measurement equipment.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, replace
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..isa.program import Program, bound_template
from ..observability.metrics import get_metrics
from ..observability.tracer import get_tracer
from ..parallel import parallel_map
from ..robustness.errors import ConfigurationError
from ..signal.reconstruction import batch_reconstruct, reconstruct
from ..uarch.config import CoreConfig, DEFAULT_CONFIG
from ..uarch.oracle import collect_oracle
from ..uarch.pipeline import Pipeline
from ..uarch.replay import record, replay
from ..uarch.trace import ActivityTrace
from .config import ModelSwitches
from .model import EMSimModel
from .trace_cache import code_family_key, get_trace_cache, trace_key


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

    def _sim_salt(self) -> str:
        """Trace-key salt of EMSim's own trace-cache entries."""
        return f"sim:mispredicts={self.switches.model_mispredicts}"

    def run_trace(self, program: Program,
                  max_cycles: Optional[int] = None) -> ActivityTrace:
        """Run the program on EMSim's internal microarchitecture model.

        Traces are served from the content-addressed trace cache: the
        key covers the *effective* (ablation-adjusted) core config plus
        the mispredict-ablation flag, so each switch combination caches
        independently and ablation sweeps never cross-contaminate.

        With misprediction modeling on, EMSim runs the device's core, so
        a miss first looks up the entry
        :meth:`~repro.hardware.device.HardwareDevice.run_trace` uses
        (the unsalted :func:`~repro.core.trace_cache.trace_key` of the
        effective config) and counts a find as
        ``trace_cache.sim.scalar_hits``.  Every trace the scalar core
        then produces is stored under that entry too; a replayed one
        (see :meth:`_run_in_order`) stays under EMSim's own key, so the
        device's ground truth never comes from a replay.  The
        no-misprediction ablation runs another core and never touches
        the shared entry.
        """
        config = self._effective_core_config()
        salt = self._sim_salt()

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
        if not self.switches.model_mispredicts:
            if self.core_kind == "out-of-order":
                raise ConfigurationError(
                    "the no-mispredict ablation is only implemented "
                    "for the in-order core")
            core = Pipeline(program, config=config,
                            oracle=collect_oracle(program))
            return core.run(max_cycles=max_cycles)
        cache = get_trace_cache()
        shared = trace_key(program, config, core_kind=self.core_kind,
                           max_cycles=max_cycles)
        trace = cache.lookup(shared)
        if trace is not None:
            get_metrics().increment("trace_cache.sim.scalar_hits")
            return trace
        if self.core_kind == "out-of-order":
            from ..uarch.ooo import OutOfOrderCore
            trace = OutOfOrderCore(program, config=config).run(
                max_cycles=max_cycles)
        else:
            trace, replayed = self._run_in_order(program, config,
                                                 max_cycles, salt)
            if replayed:
                return trace
        cache.store(shared, trace)
        return trace

    def _run_in_order(self, program: Program, config: CoreConfig,
                      max_cycles: Optional[int],
                      salt: str) -> Tuple[ActivityTrace, bool]:
        """The in-order core, replaying its schedule across data images.

        A program bound from a template
        (:meth:`~repro.isa.program.Program.with_data`, e.g. every
        :func:`~repro.leakage.aes_program`) announces more data images
        of its code.  Its code family
        (:func:`~repro.core.trace_cache.code_family_key`) records the
        scalar core's schedule on its first trace-cache miss, and later
        misses replay that schedule over their own data image
        (:func:`repro.uarch.replay.replay`), which is bit-identical to
        the scalar core.  A replay that diverges from the schedule falls
        back to the scalar core.  Any other program runs the plain
        scalar core.  The family entries live in the trace cache's
        memory, so a disabled cache never records or replays.  Returns
        the trace and whether it was replayed.
        """
        cache = get_trace_cache()
        if cache.enabled and bound_template(program) is not None:
            family = code_family_key(program, config,
                                     max_cycles=max_cycles, salt=salt)
            schedule = cache.family(family)
            if schedule is None:
                trace, schedule = record(program, config, max_cycles)
                cache.remember_family(family, schedule)
                get_metrics().increment("trace_cache.sim.recordings")
                return trace, False
            trace = replay(schedule, program)
            if trace is not None:
                get_metrics().increment("trace_cache.sim.replays")
                return trace, True
            get_metrics().increment("trace_cache.sim.replay_fallbacks")
        return Pipeline(program, config=config).run(
            max_cycles=max_cycles), False

    def trace_amplitudes(self, program: Program,
                         max_cycles: Optional[int] = None
                         ) -> Tuple[ActivityTrace, np.ndarray]:
        """``program``'s activity trace and per-cycle amplitudes X[n].

        The trace comes from :meth:`run_trace`.  The amplitudes are
        memoized in the trace cache (category ``predict``) under the
        trace's key inputs, salted with a SHA-256 digest of the pickled
        model and switches.  The digest is taken on every call, so a
        model edited in place, or a copy whose ``intercept`` or ``beta``
        was refit (Fig. 9), keys its own entry.  The cache keeps a
        read-only array and every caller gets its own copy; a disabled
        cache predicts every time.
        """
        trace = self.run_trace(program, max_cycles=max_cycles)
        digest = hashlib.sha256(pickle.dumps(
            (self.model, self.switches),
            protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()

        def runner() -> np.ndarray:
            amplitudes = self.model.predict_cycle_amplitudes(
                trace, switches=self.switches)
            amplitudes.flags.writeable = False
            return amplitudes

        with get_tracer().span("sim.predict"):
            amplitudes = get_trace_cache().get_or_run(
                program, self._effective_core_config(), runner,
                core_kind=self.core_kind, max_cycles=max_cycles,
                salt=f"{self._sim_salt()}:predict:{digest}",
                category="predict")
        return trace, amplitudes.copy()

    def simulate_trace(self, trace: ActivityTrace) -> SimulatedSignal:
        """Predict the signal for an existing activity trace."""
        with get_tracer().span("sim.predict"):
            amplitudes = self.model.predict_cycle_amplitudes(
                trace, switches=self.switches)
        return self._signal(trace, amplitudes)

    def _signal(self, trace: ActivityTrace,
                amplitudes: np.ndarray) -> SimulatedSignal:
        """Reconstruct the waveform of predicted amplitudes."""
        samples_per_cycle = self.model.config.samples_per_cycle
        with get_tracer().span("sim.reconstruct"):
            signal = reconstruct(amplitudes, self.model.config.kernel,
                                 samples_per_cycle)
        return SimulatedSignal(amplitudes=amplitudes, signal=signal,
                               trace=trace,
                               samples_per_cycle=samples_per_cycle)

    def simulate(self, program: Program,
                 max_cycles: Optional[int] = None) -> SimulatedSignal:
        """Full flow: execute the program, predict its EM signal
        (:meth:`trace_amplitudes`), reconstruct the waveform."""
        return self._signal(*self.trace_amplitudes(program,
                                                   max_cycles=max_cycles))

    def simulate_many(self, programs: Sequence[Program],
                      max_cycles: Optional[int] = None,
                      workers: int = 1) -> List["SimulatedSignal"]:
        """Simulate many programs through one ordered fan-out.

        Traces and per-cycle amplitude predictions run per program
        through :meth:`trace_amplitudes` (on up to ``workers`` processes
        via :func:`~repro.parallel.parallel_map`), and the waveform
        reconstructions share one cached kernel response.  Results are
        in input order and bit-identical to calling :meth:`simulate`
        per program, at any worker count.
        """
        programs = list(programs)
        with get_tracer().span("batch.simulate_many",
                               programs=len(programs), workers=workers):
            results = parallel_map(
                partial(self.trace_amplitudes, max_cycles=max_cycles),
                programs, workers=workers)
            samples_per_cycle = self.model.config.samples_per_cycle
            signals = batch_reconstruct(
                [amplitudes for _, amplitudes in results],
                self.model.config.kernel, samples_per_cycle)
        get_metrics().increment("batch.programs", len(programs))
        return [SimulatedSignal(amplitudes=amplitudes, signal=signal,
                                trace=trace,
                                samples_per_cycle=samples_per_cycle)
                for (trace, amplitudes), signal in zip(results, signals)]

    def with_switches(self, **flags: bool) -> "EMSim":
        """A variant simulator with some model switches toggled."""
        return EMSim(self.model, core_config=self.core_config,
                     switches=replace(self.switches, **flags),
                     core_kind=self.core_kind)

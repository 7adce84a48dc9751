"""EMSim model building against a measurement bench (paper §III & §V-A).

The trainer drives the full methodology:

1. fit the reconstruction-kernel parameters (theta, T0) to a measured
   waveform (Fig. 1);
2. measure the all-NOP baseline level;
3. run zero-operand NOP->inst->NOP isolation probes per behavioural class
   to extract per-stage baseline amplitudes A (Fig. 2) and baseline flip
   counts;
4. run random-operand probes and fit the per-stage activity-factor
   regression with step-wise bit selection (Eq. 8 / Fig. 3);
5. fit the MISO combination coefficients M and the per-stage NOP floors on
   combination microbenchmarks (Eq. 9 / Fig. 4).

Everything operates on *measured* signals only (ideal or scope+modulo
captures) plus the known microarchitecture — no peeking at the emitter's
internal parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware.device import HardwareDevice, Measurement
from ..isa.program import Program
from ..observability import get_tracer, record_campaign
from ..parallel import resolve_workers, spawn_seed, supervised_map
from ..robustness.checkpoint import CheckpointJournal
from ..robustness.errors import (CampaignError, ConvergenceError,
                                 ProbeError)
from ..robustness.health import HealthPolicy
from ..robustness.retry import (AcquisitionStats, CaptureSupervisor,
                                RetryPolicy)
from .trace_cache import trace_key
from ..leakage.streaming import WelfordAccumulator
from ..signal.kernels import DampedSineKernel
from ..signal.metrics import simulation_accuracy
from ..signal.reconstruction import estimate_cycle_amplitudes, reconstruct
from ..uarch.latches import STAGES, STAGE_REGISTERS
from ..uarch.trace import EM_CLASSES, EM_INDEX, ActivityTrace
from .activity import stage_design_matrices
from .config import EMSimConfig
from .factors import AverageActivity, RegressionActivity
from .microbench import (REPRESENTATIVES, coverage_groups,
                         double_load_probe, isolation_probe, pair_probe,
                         probe_instruction_seq, repeat_probe)
from .model import EMSimModel
from .regression import (LinearModel, RobustFitInfo, fit_linear,
                         irls_solve, mad_outlier_mask, stepwise_select)

_AMPLITUDE_EPS = 1e-3

_EM_NOP = EM_INDEX["nop"]
_EM_STALL = EM_INDEX["stall"]

# Per-process capture state for the trainer's worker pool, installed by
# the pool initializer (inherited by memory under the fork start method).
_POOL_STATE: dict = {}


def _pool_measure_init(device, method: str, repetitions: int,
                       retry: RetryPolicy, health: HealthPolicy,
                       allow_degradation: bool, seed: int) -> None:
    """Build one capture supervisor per pool worker."""
    _POOL_STATE.update(
        device=device, method=method, repetitions=repetitions, seed=seed,
        supervisor=CaptureSupervisor(device, retry=retry, health=health,
                                     allow_degradation=allow_degradation))


def _pool_measure(item):
    """Capture one indexed probe inside a pool worker.

    The worker's device RNG (and fault injector, if any) is reseeded
    from ``(trainer seed, probe index)``, so every probe's capture is
    deterministic and independent of worker count and scheduling.
    """
    index, program = item
    device = _POOL_STATE["device"]
    device.rng = spawn_seed(_POOL_STATE["seed"], index)
    injector = getattr(device, "fault_injector", None)
    if injector is not None:
        injector.reseed(spawn_seed(_POOL_STATE["seed"], index, stream=1))
    with get_tracer().span("train.capture"):
        return _POOL_STATE["supervisor"].measure(
            program, method=_POOL_STATE["method"],
            repetitions=_POOL_STATE["repetitions"])


@dataclass
class TrainingReport:
    """Accounting of one training run: acquisition + fit robustness.

    ``acquisition`` counts retried/rejected/degraded probes (the bench
    side); ``stage_outliers`` and the fit infos count observations the
    robust regression down-weighted or rejected (the fitting side).
    """

    acquisition: AcquisitionStats = field(default_factory=AcquisitionStats)
    robust_fitting: bool = False
    stage_outliers: Dict[str, int] = field(default_factory=dict)
    joint_fit: Optional[RobustFitInfo] = None
    miso_fit: Optional[RobustFitInfo] = None
    degraded_probes: List[str] = field(default_factory=list)
    # streaming summary of the deconvolution loop, folded one probe at a
    # time by the trainer's Welford accumulator: ``probes`` counts every
    # probe deconvolved (each once, the MISO probes included; the
    # kernel fit's grid scan is not counted), ``mean_level`` and
    # ``dispersion`` are the mean per-cycle amplitude and the pooled
    # per-cycle spread over them
    deconvolution: Optional[Dict[str, float]] = None

    def summary(self) -> str:
        """Multi-line run report (printed by ``repro train``)."""
        lines = [f"acquisition: {self.acquisition.summary()}"]
        if self.degraded_probes:
            lines.append("degraded probes: " +
                         ", ".join(sorted(set(self.degraded_probes))))
        lines.append(f"robust fitting: "
                     f"{'on' if self.robust_fitting else 'off'}")
        if self.stage_outliers:
            rejected = ", ".join(
                f"{stage}: {count}" for stage, count in
                sorted(self.stage_outliers.items()))
            lines.append(f"alpha outliers rejected per stage: {rejected}")
        if self.joint_fit is not None:
            lines.append(f"joint alpha fit {self.joint_fit.describe()}")
        if self.miso_fit is not None:
            lines.append(f"MISO fit {self.miso_fit.describe()}")
        if self.deconvolution is not None:
            lines.append(
                f"deconvolution: {int(self.deconvolution['probes'])} "
                f"probes, amplitude level "
                f"{self.deconvolution['mean_level']:.4g} "
                f"± {self.deconvolution['dispersion']:.4g}")
        return "\n".join(lines)


def fit_kernel(signal: np.ndarray, samples_per_cycle: int,
               t0_grid: Optional[Sequence[float]] = None,
               theta_grid: Optional[Sequence[float]] = None
               ) -> DampedSineKernel:
    """Grid-search the damped-sine parameters that best explain a signal.

    For each candidate (t0, theta), deconvolve per-cycle amplitudes and
    score the re-synthesized waveform against the measurement; the best
    scorer wins (the paper's Fig. 1 parameter estimation).
    Every grid point runs through the plan-cached banded deconvolver
    (see :mod:`repro.signal.reconstruction`), so repeated calibrations
    at the same probe length skip all 143 factorizations.
    """
    t0_grid = t0_grid if t0_grid is not None else \
        np.linspace(0.15, 0.45, 13)
    theta_grid = theta_grid if theta_grid is not None else \
        np.linspace(2.0, 7.0, 11)
    best_kernel, best_score = DampedSineKernel(), -np.inf
    for t0 in t0_grid:
        for theta in theta_grid:
            kernel = DampedSineKernel(t0=float(t0), theta=float(theta))
            amplitudes = estimate_cycle_amplitudes(signal, kernel,
                                                   samples_per_cycle)
            resynth = reconstruct(amplitudes, kernel, samples_per_cycle)
            score = simulation_accuracy(resynth, signal,
                                        samples_per_cycle)
            # penalize wild amplitude swings (over-fitting via alternating
            # huge positive/negative amplitudes)
            roughness = float(np.mean(np.abs(np.diff(amplitudes)))) + 1e-9
            score -= 1e-3 * roughness
            if score > best_score:
                best_kernel, best_score = kernel, score
    return best_kernel


@dataclass
class Trainer:
    """Builds an :class:`EMSimModel` from measurements of one device."""

    device: HardwareDevice
    config: EMSimConfig = field(default_factory=EMSimConfig)
    capture_method: str = "ideal"
    repetitions: int = 100
    activity_probes_per_class: int = 20
    miso_groups: int = 2
    miso_group_size: int = 192
    seed: int = 42
    fit_kernel_parameters: bool = True
    verbose: bool = False
    # probe-capture fan-out: probe batches run on up to N worker
    # processes (in-process at 1) with deterministic per-probe
    # reseeding, so the model is the same at any worker count (see
    # :meth:`_measure_many`)
    workers: int = 1
    # resilience knobs: health gate + retry around every capture, and
    # robust (Huber-IRLS) fitting so dirty probes cannot poison Eq. 8.
    # ``robust="auto"`` turns robust fitting on exactly when the device
    # carries an active fault plan, keeping fault-free runs bit-identical
    # to the plain least-squares path.
    health_policy: Optional[HealthPolicy] = None
    retry_policy: Optional[RetryPolicy] = None
    strict: bool = False
    robust: object = "auto"
    # campaign supervision: per-probe wall-clock deadline, bounded
    # retries with seeded backoff, and an optional checkpoint journal
    # that makes an interrupted training run resumable.  A timeout
    # runs batch captures in a worker process even at ``workers=1``
    # (hang/crash detection needs one).
    item_timeout: Optional[float] = None
    max_item_retries: int = 2
    checkpoint: Optional[str] = None
    resume: bool = False

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        if self.config.samples_per_cycle != self.device.samples_per_cycle:
            self.config = replace(
                self.config,
                samples_per_cycle=self.device.samples_per_cycle)
        faulty = getattr(self.device, "fault_injector", None) is not None
        if self.robust == "auto":
            self._robust_enabled = faulty
        else:
            self._robust_enabled = bool(self.robust)
        self.supervisor = CaptureSupervisor(
            self.device,
            retry=self.retry_policy or RetryPolicy(seed=self.seed),
            health=self.health_policy or HealthPolicy(),
            allow_degradation=not self.strict,
            log=self._log if self.verbose else None)
        self.report = TrainingReport(robust_fitting=self._robust_enabled)
        self.report.acquisition = self.supervisor.stats
        self._journal: Optional[CheckpointJournal] = None
        self._batch_counter = 0
        # streaming per-cycle amplitude moments folded by _amplitudes:
        # O(samples) observability over the whole deconvolution loop
        # without retaining any probe's amplitude vector
        self._amplitude_stats = WelfordAccumulator()

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    def _measure(self, program: Program) -> Measurement:
        """One gated capture through the supervisor, off the device's
        own RNG stream (single probes outside a batch)."""
        with get_tracer().span("train.capture"):
            measurement, outcome = self.supervisor.measure(
                program, method=self.capture_method,
                repetitions=self.repetitions)
        if outcome.degraded:
            self.report.degraded_probes.append(outcome.program)
        return measurement

    def _measure_many(self, programs: Sequence[Program]
                      ) -> List[Measurement]:
        """Capture a batch of probe programs, preserving input order.

        The probes go through :func:`~repro.parallel.supervised_map`
        (in-process at ``workers=1`` without a timeout, a process pool
        otherwise): each probe reseeds the capturing device (a
        worker's copy, or this trainer's own in-process) from
        ``(trainer seed, probe index)``, so every capture, and hence
        the model, is deterministic and independent of worker count.  Worker-side acquisition accounting (retries, rejects,
        degradations) is folded back into this trainer's report.
        """
        programs = list(programs)
        batch = self._batch_counter
        self._batch_counter += 1

        def key_for(index: int, item) -> str:
            _, program = item
            salt = (f"train:{batch}:{index}:{self.capture_method}:"
                    f"{self.repetitions}:{self.seed}:"
                    f"{self.device._emitter_digest}")
            return trace_key(program, self.device.core_config,
                             core_kind=self.device.core_kind, salt=salt)

        with get_tracer().span("train.measure_many", batch=batch,
                               probes=len(programs)):
            results, ledger = supervised_map(
                _pool_measure, list(enumerate(programs)),
                workers=self.workers,
                initializer=_pool_measure_init,
                initargs=(self.device, self.capture_method,
                          self.repetitions,
                          self.retry_policy or RetryPolicy(seed=self.seed),
                          self.health_policy or HealthPolicy(),
                          not self.strict, self.seed),
                timeout=self.item_timeout,
                max_item_retries=self.max_item_retries,
                seed=self.seed,
                journal=self._journal,
                key_for=key_for if self._journal is not None else None)
        if not ledger.complete:
            raise CampaignError(
                f"probe batch {batch} lost {len(ledger.quarantined)} of "
                f"{len(programs)} captures ({ledger.summary()}); "
                f"training needs every probe",
                quarantined=ledger.quarantined)
        measurements: List[Measurement] = []
        for measurement, outcome in results:
            self.supervisor.stats.record(outcome)
            if outcome.degraded:
                self.report.degraded_probes.append(outcome.program)
            measurements.append(measurement)
        return measurements

    def _amplitudes(self, measurement: Measurement) -> np.ndarray:
        """Deconvolve one measurement's per-cycle amplitudes.

        Every deconvolution also folds into the trainer's streaming
        amplitude accumulator (reported as ``deconvolution`` in the
        :class:`TrainingReport`) — one pass, no matrices retained.
        """
        with get_tracer().span("train.deconvolve"):
            amplitudes = estimate_cycle_amplitudes(
                measurement.signal, self.config.kernel,
                self.config.samples_per_cycle)
        self._amplitude_stats.add(amplitudes)
        return amplitudes

    @staticmethod
    def _active_cycles(trace: ActivityTrace, seq: int,
                       stage: str) -> List[int]:
        """Cycles where dynamic instruction ``seq`` is *active* in
        ``stage`` (multi-cycle units are active on first and final
        cycles)."""
        active = trace.active_mask(stage)
        return [cycle for cycle in trace.cycles_of(seq, stage)
                if active[cycle]]

    # ------------------------------------------------------------------
    # training stages
    # ------------------------------------------------------------------
    def train(self) -> EMSimModel:
        """Run the full model-building pipeline.

        With ``checkpoint`` set, the batch captures journal their
        results as they complete (flushed on SIGINT/SIGTERM too), and a
        rerun with ``resume=True`` replays completed probes from the
        journal — producing bit-identical model coefficients to an
        uninterrupted run.
        """
        meta = {"campaign": "train", "device": self.device.name,
                "seed": int(self.seed), "capture": self.capture_method,
                "repetitions": int(self.repetitions)}
        with record_campaign("train", dict(
                meta, workers=resolve_workers(self.workers))) as recording:
            with get_tracer().span("train.pipeline",
                                   device=self.device.name):
                if self.checkpoint is None:
                    model = self._train_stages()
                else:
                    recording.checkpoint(self.checkpoint)
                    self._batch_counter = 0
                    with CheckpointJournal(self.checkpoint, meta=meta,
                                           resume=self.resume) as journal:
                        with journal.guarded():
                            self._journal = journal
                            try:
                                model = self._train_stages()
                            finally:
                                self._journal = None
            recording.set("acquisition", self.supervisor.stats.summary())
        return model

    def _train_stages(self) -> EMSimModel:
        """The five training stages (see the module docstring)."""
        if self.fit_kernel_parameters:
            self._fit_kernel()
        nop_level = self._nop_baseline()
        amplitudes, base_flips = self._baseline_amplitudes(nop_level)
        regression = self._activity_regression(nop_level, amplitudes)
        model = EMSimModel(
            config=self.config,
            amplitudes=amplitudes,
            regression_activity=regression,
            average_activity=AverageActivity(base_flips=base_flips),
            nop_level=nop_level,
            beta={stage: 1.0 for stage in STAGES},
            trained_on=self.device.name)
        self._fit_miso(model)
        self._finish_amplitude_stats()
        return model

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[trainer] {message}")

    def _finish_amplitude_stats(self) -> None:
        """Summarize the streaming deconvolution moments into the report."""
        stats = self._amplitude_stats
        if stats.count < 2:
            return
        self.report.deconvolution = {
            "probes": float(stats.count),
            "mean_level": float(np.mean(stats.mean)),
            "dispersion": float(np.sqrt(np.mean(stats.variance()))),
        }

    def _fit_kernel(self) -> None:
        """Stage 1: estimate kernel shape from a mixed probe signal."""
        probe = isolation_probe("add", rs1_value=0x5A5A5A5A,
                                rs2_value=0x33CC33CC)
        measurement = self._measure(probe)
        kernel = fit_kernel(measurement.signal,
                            self.config.samples_per_cycle)
        self.config = replace(self.config, kernel=kernel)
        self._log(f"kernel fit: t0={kernel.t0:.3f} theta={kernel.theta:.2f}")

    def _nop_baseline(self) -> float:
        """Stage 2: steady-state all-NOP amplitude level."""
        probe = isolation_probe("add", rs1_value=0, rs2_value=0)
        measurement = self._measure(probe)
        amplitudes = self._amplitudes(measurement)
        trace = measurement.trace
        # steady NOP cycles: every stage flows a NOP while fetch is still
        # running (probe padding zone) — drain cycles after the last fetch
        # are quieter and would bias the level down
        all_nop = trace.active_mask("F").copy()
        for stage in STAGES:
            all_nop &= trace.em_codes(stage) == _EM_NOP
        nop_cycles = np.nonzero(all_nop)[0].tolist()
        if not nop_cycles:
            raise ProbeError("no all-NOP cycles found in probe")
        return float(np.median(amplitudes[nop_cycles]))

    def _probe_programs(self) -> Dict[str, Program]:
        """Zero-operand isolation probes, one per behavioural class."""
        programs = {cls: isolation_probe(name)
                    for cls, name in REPRESENTATIVES.items()}
        programs["load_cache"] = double_load_probe("lw")
        return programs

    def _baseline_amplitudes(self, nop_level: float
                             ) -> Tuple[Dict[Tuple[str, str], float],
                                        Dict[str, float]]:
        """Stage 3: per-stage baseline amplitudes A and baseline flips."""
        table: Dict[Tuple[str, str], List[float]] = {}
        flip_rows: Dict[str, List[float]] = {stage: [] for stage in STAGES}

        def note(cls: str, stage: str, value: float) -> None:
            table.setdefault((cls, stage), []).append(value)

        probe_items = list(self._probe_programs().items())
        measurements = self._measure_many(
            [program for _, program in probe_items])
        for (cls, program), measurement in zip(probe_items, measurements):
            amplitudes = self._amplitudes(measurement)
            trace = measurement.trace
            seq = probe_instruction_seq(program)
            if cls == "load_cache":
                # second load of the double probe (first primes the line)
                seq = seq + 1 + 6  # first load + padding NOPs
            for stage in STAGES:
                codes = trace.em_codes(stage)
                for cycle in self._active_cycles(trace, seq, stage):
                    delta = float(amplitudes[cycle]) - nop_level
                    note(EM_CLASSES[codes[cycle]], stage, delta)
                    flip_rows[stage].append(
                        float(trace.flip_counts(stage)[cycle]))
            self._log(f"A probe {cls}: done")

        amplitudes_table = {key: float(np.mean(values))
                            for key, values in table.items()}
        base_flips = {stage: float(np.mean(rows)) if rows else 0.0
                      for stage, rows in flip_rows.items()}
        return amplitudes_table, base_flips

    def _activity_probe_values(self) -> List[Tuple[str, int, int, int]]:
        """(class, rs1, rs2, mem_offset) tuples for operand probes."""
        probes = []
        for cls in ("alu", "shift", "muldiv", "load", "store", "branch"):
            for _ in range(self.activity_probes_per_class):
                rs1 = int(self.rng.integers(0, 1 << 32))
                rs2 = int(self.rng.integers(0, 1 << 32))
                offset = int(self.rng.integers(0, 500)) * 4
                probes.append((cls, rs1, rs2, offset))
        return probes

    def _activity_regression(self, nop_level: float,
                             amplitudes: Dict[Tuple[str, str], float]
                             ) -> RegressionActivity:
        """Stage 4: per-stage alpha regression on transition bits.

        Two passes.  First, isolated probes (one non-NOP stage per cycle)
        give direct per-stage alpha observations, on which step-wise
        selection prunes the transition bits (paper §III-B).  Second, the
        selected bits are *re-fit jointly* across stages on a corpus that
        also contains back-to-back identical instructions, so that the
        model learns amplitude collapses when nothing switches.

        Each probe is deconvolved once: pass 1 keeps its amplitudes for
        the joint fit.  A pass-1 observation is recorded as (its row in
        the batch of probe traces, its alpha target), and each stage's
        step-wise design is gathered from one
        :func:`~repro.core.activity.stage_design_matrices` build over the
        whole batch.
        """
        rows: Dict[str, List[int]] = {stage: [] for stage in STAGES}
        targets: Dict[str, List[float]] = {stage: [] for stage in STAGES}
        traces: List[ActivityTrace] = []
        measured: List[np.ndarray] = []

        probe_values = self._activity_probe_values()
        probe_programs = [
            isolation_probe(REPRESENTATIVES[cls], rs1_value=rs1,
                            rs2_value=rs2, mem_offset=offset)
            for cls, rs1, rs2, offset in probe_values]
        batch_row = 0
        for (cls, _, _, _), program, measurement in zip(
                probe_values, probe_programs,
                self._measure_many(probe_programs)):
            trace = measurement.trace
            probe_amplitudes = self._amplitudes(measurement)
            traces.append(trace)
            measured.append(probe_amplitudes)
            seq = probe_instruction_seq(program)
            for stage in STAGES:
                codes = trace.em_codes(stage)
                for cycle in self._active_cycles(trace, seq, stage):
                    base = amplitudes.get((EM_CLASSES[codes[cycle]], stage))
                    if base is None:
                        base = amplitudes.get((cls, stage))
                    if base is None or abs(base) < _AMPLITUDE_EPS:
                        continue
                    alpha = (float(probe_amplitudes[cycle]) - nop_level) / \
                        base
                    rows[stage].append(batch_row + cycle)
                    targets[stage].append(alpha)
            batch_row += trace.num_cycles

        # pass 1: step-wise bit selection on the isolated observations
        selected: Dict[str, np.ndarray] = {}
        for stage in STAGES:
            if len(targets[stage]) < 8:
                continue
            design = stage_design_matrices(traces, stage)[rows[stage]]
            target = np.asarray(targets[stage])
            if self._robust_enabled:
                # corrupted captures yield wild alpha observations; a MAD
                # screen keeps them out of the F-tests that pick the bits
                outliers = mad_outlier_mask(target)
                rejected = int(outliers.sum())
                if rejected and rejected < len(target) - 8:
                    design = design[~outliers]
                    target = target[~outliers]
                    self.report.stage_outliers[stage] = rejected
                    self._log(f"alpha[{stage}]: rejected {rejected} "
                              f"outlier observation(s)")
            # per-register flip counts (the leading design columns) are
            # always kept; step-wise selection only adds individual bits
            num_counts = len(STAGE_REGISTERS[stage])
            model = stepwise_select(
                design, target,
                f_threshold=self.config.stepwise_f_threshold,
                max_features=self.config.stepwise_max_features,
                forced_features=list(range(num_counts)))
            selected[stage] = model.features
            self._log(f"alpha[{stage}]: {len(target)} obs, "
                      f"{model.features.size} bits kept, "
                      f"R2={model.r_squared:.3f}")

        # pass 2: joint refit over isolated + repeated-instruction probes
        # (operands are drawn up front, in a fixed order — the captures
        # never consume the trainer RNG — so the probe batch can fan out
        # over workers)
        repeat_programs = []
        for cls in ("alu", "shift", "muldiv", "load", "store"):
            name = REPRESENTATIVES[cls]
            for _ in range(max(2, self.activity_probes_per_class // 4)):
                rs1 = int(self.rng.integers(0, 1 << 32))
                rs2 = int(self.rng.integers(0, 1 << 32))
                repeat_programs.append(repeat_probe(
                    name, rs1_value=rs1, rs2_value=rs2, count=3,
                    mem_offset=int(self.rng.integers(0, 400)) * 4))
        for measurement in self._measure_many(repeat_programs):
            traces.append(measurement.trace)
            measured.append(self._amplitudes(measurement))
        return self._joint_alpha_fit(traces, measured, nop_level,
                                     amplitudes, selected)

    def _joint_alpha_fit(self, traces, measured, nop_level, amplitudes,
                         selected) -> RegressionActivity:
        """Solve for all stages' (delta_s, c_s) in one ridge regression.

        Model per cycle:  X - X_nop = sum_s A_s * (delta_s + T_s . c_s)
        with A_s the baseline amplitude of the class active in stage s
        (0 for NOP/bubble).  Handles cycles where several stages are
        active at once, which the isolated extraction cannot.
        """
        stage_order = [stage for stage in STAGES if stage in selected]
        column_spans: Dict[str, Tuple[int, int]] = {}
        position = 0
        for stage in stage_order:
            width = 1 + selected[stage].size
            column_spans[stage] = (position, width)
            position += width
        # trailing nuisance columns: one per stage, active when that stage
        # is stalled (a stall shifts the level; skipping those cycles would
        # discard every multi-cycle-unit result observation)
        stall_columns = {stage: position + index
                         for index, stage in enumerate(stage_order)}
        total_columns = position + len(stage_order)

        design, target = self._joint_rows(
            traces, measured, nop_level, amplitudes, selected, stage_order,
            column_spans, stall_columns, total_columns)
        # ridge LS without global intercept (delta_s plays that role);
        # under fault injection, Huber IRLS so corrupted cycles cannot
        # drag every stage's (delta_s, c_s)
        solution = self._solve_joint(design, target, total_columns)

        models: Dict[str, LinearModel] = {}
        for stage in stage_order:
            start, width = column_spans[stage]
            models[stage] = LinearModel(
                intercept=float(solution[start]),
                coefficients=solution[start + 1:start + width],
                features=selected[stage])
            self._log(f"alpha[{stage}] joint: delta={solution[start]:.3f}")
        return RegressionActivity(models=models)

    @staticmethod
    def _joint_rows(traces, measured, nop_level, amplitudes, selected,
                    stage_order, column_spans, stall_columns,
                    total_columns):
        """Joint-fit rows and targets for a batch of probes.

        ``traces`` and ``measured`` pair each probe's activity trace with
        its deconvolved per-cycle amplitudes.  The probes' cycles are
        stacked in order and the whole (cycles, columns) block is built
        per stage with mask writes and one broadcast product: each
        cycle's baseline level and validity are gathered by EM code from
        per-class tables, and the selected transition features come from
        one :func:`~repro.core.activity.stage_design_matrices` build.
        Every entry is a table value or an elementwise product, so the
        block equals the per-probe blocks stacked.  Cycles where no stage
        carries an informative instruction are dropped.
        """
        cycles = sum(trace.num_cycles for trace in traces)
        block = np.zeros((cycles, total_columns))
        informative = np.zeros(cycles, dtype=bool)
        for stage in stage_order:
            levels = np.zeros(len(EM_CLASSES))
            usable = np.zeros(len(EM_CLASSES), dtype=bool)
            for code, name in enumerate(EM_CLASSES):
                level = amplitudes.get((name, stage))
                if code in (_EM_NOP, _EM_STALL) or level is None or \
                        abs(level) < _AMPLITUDE_EPS:
                    continue
                levels[code] = level
                usable[code] = True
            codes = np.concatenate([trace.em_codes(stage)
                                    for trace in traces])
            block[codes == _EM_STALL, stall_columns[stage]] = 1.0
            valid = usable[codes]
            if not valid.any():
                continue
            base = levels[codes]
            start, width = column_spans[stage]
            block[valid, start] = base[valid]
            if width > 1:
                features = stage_design_matrices(
                    traces, stage, columns=selected[stage])[valid]
                block[np.ix_(valid, np.arange(start + 1, start + width))] \
                    = base[valid, None] * features
            informative |= valid
        targets = np.concatenate([
            per_cycle[:trace.num_cycles]
            for trace, per_cycle in zip(traces, measured)])
        return block[informative], targets[informative] - nop_level

    def _solve_joint(self, design: np.ndarray, target: np.ndarray,
                     total_columns: int) -> np.ndarray:
        """Joint-fit solver: plain ridge, or Huber IRLS when robust.

        The normal-equations product is computed once and shared between
        the plain path, the IRLS warm start, and the divergence
        fallback, so the robust path never pays for it twice.
        """
        gram = design.T @ design
        if not self._robust_enabled:
            return np.linalg.solve(gram + 1e-6 * np.eye(total_columns),
                                   design.T @ target)
        try:
            solution, info = irls_solve(design, target, ridge=1e-6,
                                        gram=gram)
        except ConvergenceError:
            if self.strict:
                raise
            self._log("joint alpha IRLS diverged; falling back to "
                      "plain ridge")
            return np.linalg.solve(gram + 1e-6 * np.eye(total_columns),
                                   design.T @ target)
        self.report.joint_fit = info
        self._log(f"joint alpha fit: {info.describe()}")
        return solution

    # ------------------------------------------------------------------
    # MISO / floor fit (Eq. 9)
    # ------------------------------------------------------------------
    def _miso_training_programs(self) -> List[Program]:
        programs = coverage_groups(group_size=self.miso_group_size,
                                   seed=self.seed + 500,
                                   limit_groups=self.miso_groups)
        programs.append(pair_probe("add", "sll",
                                   rs1_value=0x0F0F0F0F,
                                   rs2_value=0x12345678))
        programs.append(pair_probe("mul", "lw"))
        # probes with long NOP-flow stretches pin down the per-stage
        # floors, which dense combination code barely constrains
        programs.append(isolation_probe("add", padding=12))
        programs.append(isolation_probe("mul", rs1_value=0xDEADBEEF,
                                        rs2_value=0x12345678, padding=12))
        programs.append(repeat_probe("add", rs1_value=0x0F0F0F0F,
                                     rs2_value=0x55AA55AA, count=6,
                                     padding=10))
        programs.append(repeat_probe("lw", count=4, padding=10))
        return programs

    def miso_design(self, model: EMSimModel, trace: ActivityTrace
                    ) -> np.ndarray:
        """(cycles, 10) design: per-stage NOP indicator and alpha*A term.

        The floor column is 1 wherever the stage is not stalled; the
        activity column holds ``alpha * A(c, s)`` on cycles that run an
        instruction, with A gathered from :meth:`EMSimModel.class_amplitudes`
        by EM code.
        """
        cycles = trace.num_cycles
        design = np.zeros((cycles, 2 * len(STAGES)))
        activity = model.regression_activity
        for index, stage in enumerate(STAGES):
            alphas = activity.alpha(trace, stage)
            codes = trace.em_codes(stage)
            running = codes != _EM_STALL
            design[:, index] = running
            working = running & (codes != _EM_NOP)
            design[working, len(STAGES) + index] = \
                alphas[working] * model.class_amplitudes(stage)[
                    codes[working]]
        return design

    def _fit_miso(self, model: EMSimModel) -> None:
        """Stage 5: fit floors F_s and coefficients M_s jointly.

        Rows where no stage runs an instruction (pure floor/stall rows)
        are up-weighted: they are rare in dense code but they alone pin
        down the per-stage NOP floors, without which the predicted quiet
        level drifts to the dense-code mean.
        """
        designs, targets = [], []
        for measurement in self._measure_many(
                self._miso_training_programs()):
            measured = self._amplitudes(measurement)
            trace = measurement.trace
            designs.append(self.miso_design(model, trace))
            targets.append(measured[:trace.num_cycles])
        design = np.vstack(designs)
        target = np.concatenate(targets)
        # repro: allow[N201] design entries are exact integer event
        # counts stored as floats; the zero test is exact by
        # construction (it selects rows with no factor activity).
        pure_floor = np.all(design[:, len(STAGES):] == 0.0, axis=1)
        weights = np.where(pure_floor, 25.0, 1.0)
        if self._robust_enabled:
            augmented = np.hstack([np.ones((design.shape[0], 1)), design])
            try:
                solution, info = irls_solve(augmented, target, ridge=1e-6,
                                            base_weights=weights)
                intercept, coef = float(solution[0]), solution[1:]
                self.report.miso_fit = info
                self._log(f"MISO robust fit: {info.describe()}")
            except ConvergenceError:
                if self.strict:
                    raise
                self._log("MISO IRLS diverged; falling back to weighted LS")
                intercept, coef = fit_linear(design, target, ridge=1e-6,
                                             weights=weights)
        else:
            intercept, coef = fit_linear(design, target, ridge=1e-6,
                                         weights=weights)
        model.intercept = float(intercept)
        model.floors = {stage: float(coef[index])
                        for index, stage in enumerate(STAGES)}
        model.miso = {stage: float(coef[len(STAGES) + index])
                      for index, stage in enumerate(STAGES)}
        self._log(f"MISO fit: intercept={model.intercept:.3f} "
                  f"miso={model.miso}")


def train_emsim(device: HardwareDevice,
                config: Optional[EMSimConfig] = None,
                **kwargs: object) -> EMSimModel:
    """One-call training of EMSim against a device bench."""
    trainer = Trainer(device=device, config=config or EMSimConfig(),
                      **kwargs)
    return trainer.train()


def fit_beta(model: EMSimModel, device: HardwareDevice,
             programs: Sequence[Program],
             capture_method: str = "ideal"
             ) -> Tuple[float, Dict[str, float]]:
    """Refit per-stage loss coefficients beta at a new probe position.

    The paper's §V-D procedure: keep A (trained at the base position),
    substitute A -> A*beta, and solve the same linear model for beta.
    That model has a free intercept, so the fit returns
    ``(intercept, beta)``: set both on the model to predict with the
    solution the betas belong to (does not mutate ``model``).
    """
    designs, targets = [], []
    trainer = Trainer(device=device, config=model.config,
                      capture_method=capture_method,
                      fit_kernel_parameters=False)
    for program in programs:
        measurement = trainer._measure(program)
        measured = trainer._amplitudes(measurement)
        trace = measurement.trace
        base = trainer.miso_design(model, trace)
        # fold the already-fitted floors/miso into per-stage columns so
        # beta is a pure per-stage scale
        cycles = trace.num_cycles
        design = np.zeros((cycles, len(STAGES)))
        for index, stage in enumerate(STAGES):
            design[:, index] = (base[:, index] *
                                model.floors.get(stage, 0.0) +
                                base[:, len(STAGES) + index] *
                                model.miso.get(stage, 1.0))
        designs.append(design)
        targets.append(measured[:cycles])
    design = np.vstack(designs)
    target = np.concatenate(targets)
    intercept, coef = fit_linear(design, target, ridge=1e-6)
    betas = {}
    for index, stage in enumerate(STAGES):
        excitation = float(np.abs(design[:, index]).sum())
        # a stage the fit programs barely exercise is unidentifiable;
        # keep the training-position default rather than fitting noise
        betas[stage] = float(coef[index]) if excitation > 1.0 else 1.0
    return intercept, betas

"""Seed reference implementations the equivalence tests compare against.

Each production engine replaced a straightforward seed implementation;
the seed versions live here, outside the package, so the tests can keep
asserting that the engine computes the same thing:

* :class:`LegacyActivityTrace` / :class:`LegacyHardwareLatches` — the
  seed's object-graph trace recorder and dict-backed latch store, run on
  either core through :func:`run_legacy`;
* :func:`direct_reconstruct` — Eq. 6 as one ``np.convolve``, and
  :func:`reconstruct_at` — Eq. 6 at arbitrary times, one kernel
  evaluation per lag;
* :func:`lu_estimate_cycle_amplitudes` — the sparse normal-equations
  deconvolution solved by ``spsolve``;
* :func:`naive_stepwise_select` — step-wise selection with a full dense
  solve per candidate per step;
* :func:`naive_cluster` — average linkage that re-averages member pair
  distances at every step;
* :func:`seed_aes_program` — AES-128 generated as assembly text with the
  key schedule and plaintext as ``.byte`` data, assembled per call;
* :func:`seed_offset_bins` — Eq. 1 offset bins with a separate
  ``% num_bins`` wrap;
* :func:`seed_continuous` — the emitter's ``y(t)`` at arbitrary times,
  one ``sin`` and one ``exp`` per sample and unit (:func:`on_grid`
  gives it, or any one-argument signal, the grid call form);
* :func:`seed_predict_cycle_amplitudes`, :func:`seed_unit_amplitudes`,
  :func:`seed_miso_design` and :func:`seed_joint_rows` — the per-cycle
  Python loops over EM-class labels and occupancy objects;
* :func:`full_design_alpha` — Eq. 8 activity factors from the whole
  stage design (:func:`seed_stage_design_matrix`, float transition bits
  and their per-register sums), of which the model then keeps its
  selected columns.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from repro.core.activity import stage_design_matrix
from repro.core.clustering import ClusterResult, signature_distance_matrix
from repro.core.factors import ALPHA_MAX, ALPHA_MIN
from repro.core.regression import LinearModel, fit_linear
from repro.isa.assembler import assemble
from repro.leakage.aes import (CT_BASE, RK_BASE, SBOX, SBOX_BASE,
                               STATE_BASE, _RK, _SBOX, _ST,
                               _emit_add_round_key, _emit_cache_warm,
                               _emit_mix_columns, _emit_shift_rows,
                               _emit_sub_bytes, key_schedule)
from repro.uarch.events import (BranchEvent, CacheEvent, FlushEvent,
                                StallEvent)
from repro.uarch.latches import (STAGE_REGISTERS, STAGES, bubble_pattern,
                                 stage_register_offsets)
from repro.uarch.ooo import OutOfOrderCore
from repro.uarch.pipeline import Pipeline
from repro.uarch.trace import (_BUBBLE_OCC, _KIND_NAMES, ACTIVE,
                               ACTIVE_FINAL, ACTIVE_HIT, ACTIVE_MISS,
                               OCC_INSTR, OCC_STALL, STALLED, STALLED_HIT,
                               STALLED_MISS, RetiredInstruction,
                               StageOccupancy)


# ---------------------------------------------------------------------------
# trace recording
# ---------------------------------------------------------------------------
class LegacyHardwareLatches:
    """The seed's dict-backed latch store (one dict per stage)."""

    def __init__(self) -> None:
        self._values: Dict[str, Dict[str, int]] = {
            stage: {name: 0 for name, _ in STAGE_REGISTERS[stage]}
            for stage in STAGES}

    def write(self, stage: str, **updates: int) -> None:
        registers = self._values[stage]
        widths = dict(STAGE_REGISTERS[stage])
        for name, value in updates.items():
            registers[name] = value & ((1 << widths[name]) - 1)

    def write_fetch(self, pc, instr_word, pred_state):
        self.write("F", pc=pc, fetch_instr=instr_word,
                   pred_state=pred_state)

    def write_decode(self, instr_word, rs1_val, rs2_val, imm, ctrl):
        self.write("D", dec_instr=instr_word, rs1_val=rs1_val,
                   rs2_val=rs2_val, dec_imm=imm, dec_ctrl=ctrl)

    def write_execute(self, alu_a, alu_b, ctrl):
        self.write("E", alu_a=alu_a, alu_b=alu_b, ex_ctrl=ctrl)

    def write_execute_out(self, alu_a, alu_b, alu_out, ctrl):
        self.write("E", alu_a=alu_a, alu_b=alu_b, alu_out=alu_out,
                   ex_ctrl=ctrl)

    def write_alu_out(self, value):
        self.write("E", alu_out=value)

    def write_mem_rdata(self, value):
        self.write("M", mem_rdata=value)

    def write_mem_ctrl(self, ctrl):
        self.write("M", mem_ctrl=ctrl)

    def write_writeback(self, data, rd, ctrl):
        self.write("W", wb_data=data, wb_rd=rd, wb_ctrl=ctrl)

    def write_bubble(self, stage: str) -> None:
        self._values[stage].update(bubble_pattern(stage))

    def values(self, stage: str) -> Tuple[int, ...]:
        registers = self._values[stage]
        return tuple(registers[name] for name, _ in STAGE_REGISTERS[stage])


# (kind, dyn) of each occupancy state the cores record
_LEGACY_STATES = {
    ACTIVE: (OCC_INSTR, None), ACTIVE_HIT: (OCC_INSTR, "hit"),
    ACTIVE_MISS: (OCC_INSTR, "miss"), ACTIVE_FINAL: (OCC_INSTR, "final"),
    STALLED: (OCC_STALL, None), STALLED_HIT: (OCC_STALL, "hit"),
    STALLED_MISS: (OCC_STALL, "miss")}


@dataclass
class LegacyActivityTrace:
    """The seed's trace: one occupancy object and latch tuple per stage
    per cycle, one event object per event, with every derived view a
    Python scan.  Its tags are ``(instr, seq)`` pairs."""

    occupancy: Dict[str, List[StageOccupancy]] = field(
        default_factory=lambda: {stage: [] for stage in STAGES})
    _values: Dict[str, List[Tuple[int, ...]]] = field(
        default_factory=lambda: {stage: [] for stage in STAGES})
    stalls: list = field(default_factory=list)
    cache_events: list = field(default_factory=list)
    branch_events: list = field(default_factory=list)
    flushes: list = field(default_factory=list)
    retired: list = field(default_factory=list)

    # -- the cores' recording protocol ----------------------------------
    def begin_cycle(self) -> None:
        self._pending = {stage: _BUBBLE_OCC for stage in STAGES}

    def tag(self, instr, seq):
        return instr, seq

    def record(self, stage, tag, state) -> None:
        instr, seq = tag
        kind, dyn = _LEGACY_STATES[state]
        self._pending[stage] = StageOccupancy(kind, instr, seq, dyn)

    def stage_kind_at(self, stage: str) -> int:
        return _KIND_NAMES.index(self._pending[stage].kind)

    def stall(self, cycle, stage, cause, seq) -> None:
        self.stalls.append(StallEvent(cycle=cycle, stage=stage, cause=cause,
                                      seq=seq))

    def cache_access(self, cycle, address, is_store, hit, seq) -> None:
        self.cache_events.append(CacheEvent(
            cycle=cycle, address=address, is_store=is_store, hit=hit,
            seq=seq))

    def branch(self, cycle, pc, taken, target, predicted_taken,
               predicted_target, mispredicted, seq) -> None:
        self.branch_events.append(BranchEvent(
            cycle=cycle, pc=pc, taken=taken, target=target,
            predicted_taken=predicted_taken,
            predicted_target=predicted_target, mispredicted=mispredicted,
            seq=seq))

    def flush(self, cycle, flushed, redirect_pc) -> None:
        self.flushes.append(FlushEvent(cycle=cycle, flushed=flushed,
                                       redirect_pc=redirect_pc))

    def retire(self, seq, pc, instr, cycle) -> None:
        self.retired.append(RetiredInstruction(seq=seq, pc=pc, instr=instr,
                                               cycle=cycle))

    def end_cycle(self, latches) -> None:
        for stage in STAGES:
            self.occupancy[stage].append(self._pending[stage])
            self._values[stage].append(latches.values(stage))

    # -- derived views ---------------------------------------------------
    @property
    def num_cycles(self) -> int:
        return len(self._values[STAGES[0]])

    def values_matrix(self, stage: str) -> np.ndarray:
        return np.asarray(self._values[stage], dtype=np.uint64).reshape(
            self.num_cycles, len(STAGE_REGISTERS[stage]))

    def transition_matrix(self, stage: str) -> np.ndarray:
        values = self.values_matrix(stage)
        previous = np.vstack([np.zeros((1, values.shape[1]),
                                       dtype=np.uint64), values[:-1]])
        xor = values ^ previous
        columns = []
        for column, (_, width) in enumerate(STAGE_REGISTERS[stage]):
            shifts = np.arange(width, dtype=np.uint64)
            columns.append(((xor[:, column:column + 1] >> shifts) &
                            np.uint64(1)).astype(np.uint8))
        return np.hstack(columns)

    def total_flip_counts(self) -> np.ndarray:
        return sum(self.transition_matrix(stage).sum(axis=1)
                   for stage in STAGES)

    def stage_kinds(self, stage: str) -> List[str]:
        return [occ.kind for occ in self.occupancy[stage]]

    def em_classes(self, stage: str) -> List[str]:
        return [occ.em_class() for occ in self.occupancy[stage]]


def run_legacy(program, ooo: bool = False, **options):
    """Run ``program`` on a fresh core recording through the seed's
    trace and latches; returns ``(trace, core)``."""
    core = OutOfOrderCore(program, **options) if ooo \
        else Pipeline(program, **options)
    core.latches = LegacyHardwareLatches()
    core.trace = LegacyActivityTrace()
    return core.run(), core


def assert_traces_identical(legacy, columnar) -> None:
    """Assert two traces agree on every matrix, view and event list."""
    assert legacy.num_cycles == columnar.num_cycles
    for stage in STAGES:
        assert np.array_equal(legacy.values_matrix(stage),
                              np.asarray(columnar.values_matrix(stage)))
        assert np.array_equal(legacy.transition_matrix(stage),
                              columnar.transition_matrix(stage))
        assert legacy.stage_kinds(stage) == columnar.stage_kinds(stage)
        assert legacy.em_classes(stage) == columnar.em_classes(stage)
        assert list(legacy.occupancy[stage]) == \
            list(columnar.occupancy[stage])
    assert np.array_equal(legacy.total_flip_counts(),
                          columnar.total_flip_counts())
    assert legacy.stalls == columnar.stalls
    assert legacy.cache_events == columnar.cache_events
    assert legacy.branch_events == columnar.branch_events
    assert legacy.flushes == columnar.flushes
    assert [(entry.seq, entry.pc, entry.instr, entry.cycle)
            for entry in legacy.retired] == \
        [(entry.seq, entry.pc, entry.instr, entry.cycle)
         for entry in columnar.retired]


# ---------------------------------------------------------------------------
# synthesis and deconvolution
# ---------------------------------------------------------------------------
def direct_reconstruct(amplitudes, kernel, samples_per_cycle):
    """Eq. 6 as a direct convolution of the impulse train."""
    impulse_train = np.zeros(len(amplitudes) * samples_per_cycle)
    impulse_train[::samples_per_cycle] = amplitudes
    signal = np.convolve(impulse_train, kernel.sampled(samples_per_cycle))
    return signal[:len(impulse_train)]


def reconstruct_at(amplitudes, kernel, times):
    """``y(t) = sum_n x[n] f(t - n)`` at arbitrary times (cycle units)."""
    amplitudes = np.asarray(amplitudes, dtype=float)
    times = np.asarray(times, dtype=float)
    result = np.zeros_like(times)
    support = int(np.ceil(kernel.support_cycles))
    base_cycle = np.floor(times).astype(int)
    for lag in range(support + 1):
        cycle = base_cycle - lag
        valid = (cycle >= 0) & (cycle < len(amplitudes))
        tau = times[valid] - cycle[valid]
        result[valid] += amplitudes[cycle[valid]] * kernel.evaluate(tau)
    return result


def lu_estimate_cycle_amplitudes(signal, kernel, samples_per_cycle,
                                 ridge=1e-9):
    """Ridge deconvolution through the sparse kernel operator."""
    signal = np.asarray(signal, dtype=float)
    num_cycles = len(signal) // samples_per_cycle
    response = kernel.sampled(samples_per_cycle)
    rows, cols, vals = [], [], []
    for cycle in range(num_cycles):
        start = cycle * samples_per_cycle
        stop = min(start + len(response), len(signal))
        rows.extend(range(start, stop))
        cols.extend([cycle] * (stop - start))
        vals.extend(response[:stop - start])
    operator = sparse.csr_matrix((vals, (rows, cols)),
                                 shape=(len(signal), num_cycles))
    gram = operator.T @ operator + ridge * sparse.identity(num_cycles)
    return np.asarray(spsolve(gram.tocsc(), operator.T @ signal)).ravel()


# ---------------------------------------------------------------------------
# modulo fold
# ---------------------------------------------------------------------------
def seed_offset_bins(sample_times, period, num_bins):
    """Each sample's Eq. 1 offset bin, ``round(offset / period *
    num_bins)``, wrapped by an integer ``% num_bins``."""
    offsets = np.mod(np.asarray(sample_times, dtype=float), period)
    return np.round(offsets / period * num_bins).astype(int) % num_bins


# ---------------------------------------------------------------------------
# model building
# ---------------------------------------------------------------------------
def _rss(design, target, columns, ridge):
    if columns:
        intercept, coef = fit_linear(design[:, columns], target, ridge)
        predictions = intercept + design[:, columns] @ coef
    else:
        predictions = np.full_like(target, target.mean())
    residuals = target - predictions
    return float(residuals @ residuals)


def naive_stepwise_select(design, target, f_threshold=4.0,
                          max_features=None, ridge=1e-8,
                          forced_features=None) -> LinearModel:
    """Forward step-wise selection, every candidate refitted densely."""
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    n_samples, n_columns = design.shape
    variances = design.var(axis=0)
    selected = [col for col in dict.fromkeys(forced_features or [])
                if variances[col] > 0]
    candidates = [col for col in range(n_columns)
                  if variances[col] > 0 and col not in selected]
    rss_current = _rss(design, target, selected, ridge)
    while candidates:
        if max_features is not None and len(selected) >= max_features:
            break
        best_column, best_rss = None, rss_current
        for column in candidates:
            rss_new = _rss(design, target, selected + [column], ridge)
            if rss_new < best_rss:
                best_column, best_rss = column, rss_new
        dof = n_samples - len(selected) - 2
        if best_column is None or dof <= 0:
            break
        denom = best_rss / dof
        f_stat = (rss_current - best_rss) / denom if denom > 0 else \
            float("inf")
        if f_stat < f_threshold:
            break
        selected.append(best_column)
        candidates.remove(best_column)
        rss_current = best_rss
    if selected:
        intercept, coef = fit_linear(design[:, selected], target, ridge)
    else:
        intercept, coef = float(target.mean()), np.zeros(0)
    return LinearModel(intercept=intercept,
                       coefficients=np.asarray(coef, dtype=float),
                       features=np.asarray(selected, dtype=int))


def naive_cluster(signatures, num_clusters: Optional[int] = 7,
                  distance_threshold: Optional[float] = None
                  ) -> ClusterResult:
    """Average-linkage clustering re-averaging member distances per step."""
    names, distance = signature_distance_matrix(signatures)
    target = num_clusters if num_clusters is not None else 1
    clusters: Dict[int, List[int]] = {i: [i] for i in range(len(names))}
    merge_heights: List[float] = []
    while len(clusters) > target:
        keys = sorted(clusters)
        best = (np.inf, -1, -1)
        for index_a, a in enumerate(keys):
            for b in keys[index_a + 1:]:
                height = float(np.mean([[distance[i, j]
                                         for j in clusters[b]]
                                        for i in clusters[a]]))
                if height < best[0]:
                    best = (height, a, b)
        height, a, b = best
        if distance_threshold is not None and height > distance_threshold:
            break
        clusters[a] = clusters[a] + clusters.pop(b)
        merge_heights.append(height)
    labels = {}
    for cluster_id, members in enumerate(sorted(clusters.values(),
                                                key=min)):
        for index in members:
            labels[names[index]] = cluster_id
    return ClusterResult(labels=labels, merge_heights=merge_heights)


# ---------------------------------------------------------------------------
# AES program generation
# ---------------------------------------------------------------------------
def seed_aes_program(key, plaintext, rounds=10, warm_cache=True):
    """AES-128 as one assembly text per call, data tables as ``.byte``."""
    round_keys = key_schedule(key)
    lines = [".data", f".org {SBOX_BASE:#x}"]
    lines.append("sbox: .byte " + ", ".join(str(v) for v in SBOX))
    lines.append(f".org {RK_BASE:#x}")
    flattened = [byte for round_key in round_keys for byte in round_key]
    lines.append("rk: .byte " + ", ".join(str(v) for v in flattened))
    lines.append(f".org {STATE_BASE:#x}")
    lines.append("state: .byte " + ", ".join(str(v) for v in plaintext))
    lines.append(f".org {CT_BASE:#x}")
    lines.append("ct: .space 16")

    lines.append(".text")
    lines.append(f"    la {_SBOX}, sbox")
    lines.append(f"    la {_RK}, rk")
    lines.append(f"    la {_ST}, state")
    if warm_cache:
        _emit_cache_warm(lines)
    _emit_add_round_key(lines, 0)
    for round_index in range(1, rounds + 1):
        lines.append(f"    # ---- round {round_index} ----")
        _emit_sub_bytes(lines)
        _emit_shift_rows(lines)
        if round_index != rounds:
            _emit_mix_columns(lines)
        _emit_add_round_key(lines, round_index)
    lines.append("    # copy state out to ct")
    for byte in range(16):
        lines.append(f"    lbu t0, {byte}({_ST})")
        lines.append(f"    sb t0, {byte + CT_BASE - STATE_BASE}({_ST})")
    lines.append("    ebreak")
    return assemble("\n".join(lines), name=f"aes128_r{rounds}")


# ---------------------------------------------------------------------------
# EM-class consumers
# ---------------------------------------------------------------------------
def seed_predict_cycle_amplitudes(model, trace, switches=None):
    """Eq. 9 with each cycle's class resolved by a Python loop."""
    switches = switches or model.config.switches
    activity = model._activity_model(switches)
    cycles = trace.num_cycles
    prediction = np.full(cycles, model.intercept)
    for stage in STAGES:
        floor = model.floors.get(stage, 0.0)
        beta = model.beta.get(stage, 1.0)
        scale = model.miso.get(stage, 1.0) * beta
        alphas = activity.alpha(trace, stage)
        amplitudes = np.zeros(cycles)
        stalled = np.zeros(cycles, dtype=bool)
        for cycle, em_class in enumerate(trace.em_classes(stage)):
            if em_class == "stall":
                if switches.model_stalls:
                    stalled[cycle] = True
                    continue
                occ = trace.occupancy[stage][cycle]
                em_class = (occ.instr.cls.value if occ.instr is not None
                            else "nop")
                if occ.instr is not None and occ.instr.is_load:
                    em_class = "load_cache" if occ.dyn == "hit" \
                        else "load_mem"
            if em_class == "nop":
                continue
            amplitudes[cycle] = model.amplitude(em_class, stage, switches)
        contribution = (floor * beta) + (scale * alphas) * amplitudes
        if stalled.any():
            contribution[stalled] = 0.0
        prediction += contribution
    return prediction


def seed_unit_amplitudes(emitter, trace):
    """Per-unit amplitudes with one ``static_activity`` call per cycle."""
    cycles = trace.num_cycles
    amplitudes = np.zeros((cycles, len(emitter.units)))
    for column, unit in enumerate(emitter.units):
        static = np.fromiter(
            (unit.static_activity(label)
             for label in trace.em_classes(unit.stage)),
            dtype=float, count=cycles)
        flips = trace.transition_matrix(unit.stage)[:, unit.bit_indices] \
            @ unit.bit_weights
        amplitudes[:, column] = static + flips
    return amplitudes


def seed_continuous(emitter, trace):
    """``y(t)`` at arbitrary times: the lag sums fold into per-cycle
    tables, then every sample pays one ``sin`` and one ``exp`` per unit.

    Times are in nominal-clock cycles, as for
    :meth:`~repro.hardware.emitter.HardwareEmitter.continuous`.
    """
    units = emitter.units
    amplitudes = emitter.unit_amplitudes(trace)
    weighted = amplitudes * (emitter.gain * emitter._couplings)[None, :]
    num_cycles = trace.num_cycles
    scale = emitter.clock_scale

    supports = np.array([int(np.ceil(unit.kernel.support_cycles))
                         for unit in units])
    max_lag = int(supports.max())
    lags = np.arange(max_lag + 1)
    t0 = np.array([unit.kernel.t0 for unit in units])
    theta = np.array([unit.kernel.theta for unit in units])
    phase = np.array([unit.kernel.phase for unit in units])
    # (lags, units) constants: cos/sin of the per-lag phase advance,
    # scaled by the per-lag decay; zeroed beyond each unit's support
    lag_angle = 2.0 * np.pi * lags[:, None] / t0[None, :]
    lag_decay = np.exp(-theta[None, :] * lags[:, None])
    in_support = lags[:, None] <= supports[None, :]
    lag_cos = np.where(in_support, np.cos(lag_angle) * lag_decay, 0.0)
    lag_sin = np.where(in_support, np.sin(lag_angle) * lag_decay, 0.0)
    # zero-guard rows on both sides absorb out-of-range cycles
    pad = max_lag + 1
    padded = np.zeros((num_cycles + 2 * pad, len(units)))
    padded[pad:pad + num_cycles] = weighted
    rows = padded.shape[0]
    cos_table = np.zeros_like(padded)
    sin_table = np.zeros_like(padded)
    for lag in range(max_lag + 1):
        shifted = np.roll(padded, lag, axis=0)
        shifted[:lag] = 0.0
        cos_table += shifted * lag_cos[lag][None, :]
        sin_table += shifted * lag_sin[lag][None, :]
    # fold the probe phase in:
    #   sin(a f + phi) X + cos(a f + phi) Y
    #     = sin(a f)(X cos phi - Y sin phi) + cos(a f)(X sin phi + Y cos phi)
    cos_phase, sin_phase = np.cos(phase), np.sin(phase)
    cos_table, sin_table = \
        (cos_table * cos_phase[None, :] - sin_table * sin_phase[None, :],
         cos_table * sin_phase[None, :] + sin_table * cos_phase[None, :])
    # X sin(a f) + Y cos(a f) = R sin(a f + psi)
    amp_table = np.hypot(cos_table, sin_table)
    shift_table = np.arctan2(sin_table, cos_table)
    angular = 2.0 * np.pi / t0

    def evaluate(times):
        times = np.asarray(times, dtype=float) / scale
        base_cycle = np.floor(times).astype(int)
        frac = times - base_cycle
        index = np.clip(base_cycle + pad, 0, rows - 1)
        angle = frac[:, None] * angular[None, :] + shift_table[index]
        decay = np.exp(-frac[:, None] * theta[None, :])
        return (amp_table[index] * np.sin(angle) * decay).sum(axis=1)

    return evaluate


def on_grid(evaluate):
    """Adapt a one-argument ``y(t)`` to the grid call form
    ``y(starts, count, step)``: ``t = starts[r] + k * step`` for
    ``k < count``, repetitions concatenated in order."""
    def sampled(starts, count, step):
        starts = np.asarray(starts, dtype=float)
        return evaluate((starts[:, None] + np.arange(count) * step).ravel())

    return sampled


def seed_miso_design(model, trace):
    """The MISO design filled cycle by cycle from occupancy objects."""
    cycles = trace.num_cycles
    design = np.zeros((cycles, 2 * len(STAGES)))
    activity = model.regression_activity
    for index, stage in enumerate(STAGES):
        alphas = activity.alpha(trace, stage)
        for cycle, occ in enumerate(trace.occupancy[stage]):
            em_class = occ.em_class()
            if em_class == "stall":
                continue
            if em_class == "nop":
                design[cycle, index] = 1.0
                continue
            design[cycle, index] = 1.0  # floor present under activity
            design[cycle, len(STAGES) + index] = \
                alphas[cycle] * model.amplitude(em_class, stage)
    return design


def seed_joint_rows(measured, trace, nop_level, amplitudes, selected,
                    stage_order, column_spans, stall_columns,
                    total_columns, amplitude_eps=1e-3):
    """Joint-fit rows with each cycle's class read from its occupant."""
    cycles = trace.num_cycles
    block = np.zeros((cycles, total_columns))
    informative = np.zeros(cycles, dtype=bool)
    for stage in stage_order:
        base = np.zeros(cycles)
        valid = np.zeros(cycles, dtype=bool)
        for cycle, occ in enumerate(trace.occupancy[stage]):
            label = occ.em_class()
            if label == "stall":
                block[cycle, stall_columns[stage]] = 1.0
                continue
            if label == "nop":
                continue
            level = amplitudes.get((label, stage))
            if level is None or abs(level) < amplitude_eps:
                continue
            base[cycle] = level
            valid[cycle] = True
        if not valid.any():
            continue
        start, width = column_spans[stage]
        block[valid, start] = base[valid]
        if width > 1:
            features = stage_design_matrix(trace, stage)[
                np.ix_(valid, selected[stage])]
            block[np.ix_(valid, np.arange(start + 1, start + width))] \
                = base[valid, None] * features
        informative |= valid
    targets = measured[:cycles][informative] - nop_level
    return block[informative], targets


# ---------------------------------------------------------------------------
# activity factors
# ---------------------------------------------------------------------------
def seed_stage_design_matrix(trace, stage):
    """The whole stage design: per-register sums of the float transition
    bits, then the bits themselves."""
    bits = trace.transition_matrix(stage).astype(float)
    offsets = stage_register_offsets(stage)
    counts = np.stack(
        [bits[:, start:start + width].sum(axis=1)
         for _, (start, width) in sorted(offsets.items(),
                                         key=lambda item: item[1][0])],
        axis=1)
    return np.hstack([counts, bits])


def full_design_alpha(activity, trace, stage):
    """Eq. 8 factors predicted from the whole stage design."""
    model = activity.models.get(stage)
    if model is None:
        return np.ones(trace.num_cycles)
    return np.clip(model.predict(seed_stage_design_matrix(trace, stage)),
                   ALPHA_MIN, ALPHA_MAX)

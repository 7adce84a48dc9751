"""Seed reference implementations the equivalence tests compare against.

Each production engine replaced a straightforward seed implementation;
the seed versions live here, outside the package, so the tests can keep
asserting that the engine computes the same thing:

* :class:`SeedPipeline` — the seed in-order core, one method per stage,
  recording through the trace's per-call protocol (:func:`run_seed`),
  and :class:`ScheduleRecorder` — the seed's data-latch provenance,
  kept by hook calls from that core (:func:`seed_record`);
* :class:`LegacyActivityTrace` / :class:`LegacyHardwareLatches` — the
  seed's object-graph trace recorder and dict-backed latch store, run on
  the seed core or the out-of-order core through :func:`run_legacy`;
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
* :func:`seed_alu_result` and :func:`seed_muldiv_result` — each
  instruction's ALU result as a chain of mnemonic tests;
* :func:`seed_offset_bins` — Eq. 1 offset bins from ``np.mod`` with a
  separate ``% num_bins`` wrap;
* :func:`per_repetition_capture` — the scope's capture loop drawing each
  repetition's noise with ``rng.normal`` and adding it row by row, then
  quantizing into a fresh array;
* :func:`seed_trace_keys` — the trace cache's keys hashed from each
  program's own sections, with no memo and no template reuse;
* :func:`seed_continuous` — the emitter's ``y(t)`` at arbitrary times,
  one ``sin`` and one ``exp`` per sample and unit (:func:`on_grid`
  gives it, or any one-argument signal, the grid call form), and
  :func:`per_repetition_continuous` — the grid evaluator one repetition
  at a time, a row gather and a dot product per sample;
* :func:`seed_predict_cycle_amplitudes`, :func:`seed_unit_amplitudes`,
  :func:`seed_miso_design` and :func:`seed_joint_rows` — the per-cycle
  Python loops over EM-class labels and occupancy objects;
* :func:`full_design_alpha` — Eq. 8 activity factors from the whole
  stage design (:func:`seed_stage_design_matrix`, float transition bits
  and their per-register sums), of which the model then keeps its
  selected columns;
* :func:`seed_per_cycle_similarities` — the accuracy metric's per-cycle
  scores, one ``np.dot`` triple per cycle;
* :func:`two_pass_welch_t` — TVLA's Welch t-statistic from the stacked
  (traces, samples) matrices, means and variances in two passes;
* :func:`seed_transition_matrix` — one stage's transition bits from its
  own XOR, shifted and masked out per bit, and :func:`seed_unpacked` —
  the code columns decoded one stage at a time, with each instruction's
  EM row classified afresh;
* :func:`swar_popcount` — set bits counted by SWAR arithmetic (NumPy
  before 2.0 has no ``bitwise_count``), and
  :func:`seed_stage_design_matrices` — stacked designs gathered from
  whole seed designs;
* :func:`seed_signal_on_grid` — the ideal capture from the seed's
  per-unit amplitudes with a fresh impulse buffer per unit.

:func:`trace_bytes` turns a trace's content into comparable bytes.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from repro.core.activity import stage_design_matrix
from repro.core.clustering import ClusterResult, signature_distance_matrix
from repro.core.factors import ALPHA_MAX, ALPHA_MIN
from repro.core.regression import LinearModel, fit_linear
from repro.core.trace_cache import TRACE_KEY_VERSION
from repro.isa.assembler import assemble
from repro.isa.encoding import sign_extend, to_unsigned
from repro.isa.instructions import Instruction
from repro.isa.program import TEXT_BASE, Program
from repro.leakage.aes import (CT_BASE, RK_BASE, SBOX, SBOX_BASE,
                               STATE_BASE, _RK, _SBOX, _ST,
                               _emit_add_round_key, _emit_cache_warm,
                               _emit_mix_columns, _emit_shift_rows,
                               _emit_sub_bytes, key_schedule)
from repro.robustness.errors import AcquisitionError, AssemblerError
from repro.signal.acquisition import RepetitionStats
from repro.signal.metrics import normalize_energy
from repro.uarch.branch import BranchTargetBuffer, make_predictor
from repro.uarch.cache import DataCache
from repro.uarch.config import DEFAULT_CONFIG, CoreConfig
from repro.uarch.events import (BranchEvent, CacheEvent, FlushEvent,
                                StallCause, StallEvent)
from repro.uarch.isa_exec import (ALU_FUNCTIONS, BRANCH_CONDITIONS,
                                  alu_result, branch_taken,
                                  control_flow_target, load_width,
                                  store_width)
from repro.uarch.latches import (STAGE_REGISTERS, STAGE_SLICES, STAGES,
                                 TOTAL_REGISTERS, HardwareLatches,
                                 bubble_pattern, control_word,
                                 stage_register_offsets)
from repro.uarch.memory import MainMemory
from repro.uarch.ooo import OutOfOrderCore
from repro.uarch.pipeline import (BRANCH, DATA_COLUMNS, JALR, LOAD, MULDIV,
                                  PLAIN, STORE)
from repro.uarch.regfile import RegisterFile
from repro.uarch.replay import _FLAT_COLUMNS, Schedule, _frozen
from repro.uarch.trace import (_BUBBLE_OCC, _DYN_NAMES, _KIND_NAMES,
                               _INSTR_BITS, _INSTR_SHIFT, _SEQ_SHIFT, ACTIVE,
                               ACTIVE_FINAL, ACTIVE_HIT, ACTIVE_MISS,
                               EM_INDEX, KIND_BUBBLE, KIND_STALL, OCC_INSTR,
                               OCC_STALL, STALLED, STALLED_HIT, STALLED_MISS,
                               ActivityTrace, RetiredInstruction,
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


# ---------------------------------------------------------------------------
# the seed in-order core
# ---------------------------------------------------------------------------
class SeedHardwareLatches(HardwareLatches):
    """The production latch store plus the writers only the seed core
    calls."""

    __slots__ = ()

    def write_execute(self, alu_a, alu_b, ctrl):
        self.write("E", alu_a=alu_a, alu_b=alu_b, ex_ctrl=ctrl)

    def write_alu_out(self, value):
        self.write("E", alu_out=value)

    def write_mem_ctrl(self, ctrl):
        self.write("M", mem_ctrl=ctrl)


class SeedRegisterFile(RegisterFile):
    """The register file plus the seed core's ``read``."""

    def read(self, index):
        return self._values[index]


class _Uop:
    """One in-flight dynamic instruction."""

    __slots__ = ("instr", "pc", "seq", "tag", "writes_reg", "pred_taken",
                 "pred_target", "rs1_val", "rs2_val", "result", "mem_addr",
                 "store_val", "result_ready", "e_started", "e_remaining",
                 "m_started", "m_remaining", "mem_hit", "taken", "target")

    def __init__(self, instr: Instruction, pc: int, seq: int,
                 tag: object) -> None:
        self.instr = instr
        self.pc = pc
        self.seq = seq
        self.tag = tag               # the trace's occupancy tag
        self.writes_reg: Optional[int] = instr.destination_register
        self.pred_taken = False
        self.pred_target: Optional[int] = None
        self.rs1_val = 0
        self.rs2_val = 0
        self.result = 0              # ALU result / load data / link value
        self.mem_addr = 0
        self.store_val = 0
        self.result_ready = False
        self.e_started = False
        self.e_remaining = 0
        self.m_started = False
        self.m_remaining = 0
        self.mem_hit: Optional[bool] = None
        self.taken = False
        self.target = 0


class SeedPipeline:
    """The seed in-order core: one method per stage, recording through
    the trace's per-call protocol (and a :class:`ScheduleRecorder`'s
    hooks); run a :class:`Program`, get an :class:`ActivityTrace` plus
    final architectural state."""

    def __init__(self, program: Program,
                 config: CoreConfig = DEFAULT_CONFIG,
                 alu_bug: Optional[object] = None,
                 oracle: Optional[object] = None):
        self.program = program
        self.config = config
        self.regfile = SeedRegisterFile()
        self.memory = MainMemory(program.data)
        self.cache = DataCache(config.cache)
        self.predictor = make_predictor(config.predictor,
                                        config.predictor_history_bits,
                                        config.predictor_table_bits)
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.latches = SeedHardwareLatches()
        self.trace = ActivityTrace()
        self.alu_bug = alu_bug   # optional callable(instr, a, b) -> result
        self.oracle = oracle     # optional OracleOutcomes (perfect fetch)
        self.recorder = None     # optional ScheduleRecorder

        self.pc = program.entry
        self.cycle = 0
        self.next_seq = 0
        self.fetch_halted = False
        self.halted = False

        # stage slots (None = empty / bubble)
        self.f_uop: Optional[_Uop] = None
        self.d_uop: Optional[_Uop] = None
        self.e_uop: Optional[_Uop] = None
        self.m_uop: Optional[_Uop] = None
        self.w_uop: Optional[_Uop] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> ActivityTrace:
        """Run until the program halts or ``max_cycles`` elapse."""
        limit = max_cycles if max_cycles is not None \
            else self.config.max_cycles
        while not self.halted and self.cycle < limit:
            self.step()
        return self.trace

    @property
    def pipeline_empty(self) -> bool:
        """True when no in-flight instruction remains."""
        return not any((self.f_uop, self.d_uop, self.e_uop, self.m_uop,
                        self.w_uop))

    # ------------------------------------------------------------------
    # one clock cycle
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the core by one clock cycle.

        Stages record occupancy straight into the trace (unrecorded
        stages default to bubbles); the cycle ends with one latch
        snapshot via ``end_cycle``.
        """
        # clock-edge handoff: the instruction fetched last cycle enters
        # Decode if the slot was vacated
        if self.d_uop is None and self.f_uop is not None:
            self.d_uop = self.f_uop
            self.f_uop = None

        self.trace.begin_cycle()
        self._stage_writeback()
        mem_free = self._stage_memory()
        exec_free, flush_redirect = self._stage_execute(mem_free)

        if flush_redirect is not None:
            self._flush_wrong_path(flush_redirect)
        else:
            decode_redirect = self._stage_decode(exec_free)
            self._stage_fetch(decode_redirect)

        self.trace.end_cycle(self.latches)
        if self.recorder is not None:
            self.recorder.end_cycle()
        self.cycle += 1
        if self.fetch_halted and self.pipeline_empty:
            self.halted = True

    def _flush_wrong_path(self, flush_redirect: int) -> None:
        """Squash the two younger wrong-path instructions — the one in
        Decode and this cycle's (suppressed) fetch: the paper's 2-cycle
        misprediction penalty.  The squashed stages stay bubbles in the
        trace and their latches snap to the bubble pattern."""
        flushed = 1 + int(self.d_uop is not None) + \
            int(self.f_uop is not None)
        self.d_uop = None
        self.f_uop = None
        self.latches.write_bubble("D")
        self.latches.write_bubble("F")
        if self.recorder is not None:
            self.recorder.bubble("D")
        self.pc = flush_redirect
        self.fetch_halted = False  # wrong path may have run off the end
        self.trace.flush(self.cycle, flushed, flush_redirect)

    # ------------------------------------------------------------------
    # Writeback
    # ------------------------------------------------------------------
    def _stage_writeback(self) -> None:
        uop = self.w_uop
        if uop is None:
            self.latches.write_bubble("W")
            if self.recorder is not None:
                self.recorder.bubble("W")
            return
        rd = uop.writes_reg
        if rd is not None:
            self.regfile.write(rd, uop.result)
        self.latches.write_writeback(uop.result if rd is not None else 0,
                                     rd or 0, 1 if rd is not None else 0)
        if self.recorder is not None:
            self.recorder.writeback(uop.seq, rd)
        trace = self.trace
        trace.record("W", uop.tag, ACTIVE)
        trace.retire(uop.seq, uop.pc, uop.instr, self.cycle)
        if uop.instr.name in ("ecall", "ebreak"):
            self.fetch_halted = True
        self.w_uop = None

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def _stage_memory(self) -> bool:
        """Process the Memory stage; returns True if the slot is free for
        the Execute stage to advance into."""
        uop = self.m_uop
        if uop is None:
            self.latches.write_bubble("M")
            if self.recorder is not None:
                self.recorder.bubble("M")
            return True
        instr = uop.instr
        if not uop.m_started:
            uop.m_started = True
            if instr.is_load or instr.is_store:
                self._memory_access(uop)
            else:
                self.latches.write_mem_ctrl(control_word(instr, 8))
                self.trace.record("M", uop.tag, ACTIVE)
                uop.m_remaining = 0
        else:
            uop.m_remaining -= 1
            trace = self.trace
            if uop.mem_hit is False:
                trace.record("M", uop.tag, STALLED_MISS)
                trace.stall(self.cycle, "M", StallCause.CACHE_MISS, uop.seq)
            else:
                trace.record("M", uop.tag, STALLED_HIT)
                trace.stall(self.cycle, "M", StallCause.MEM_BUSY, uop.seq)
            if uop.m_remaining == 0 and instr.is_load:
                # data-return flip on the read-data bus
                self.latches.write_mem_rdata(uop.result)
                uop.result_ready = True
                if self.recorder is not None:
                    self.recorder.load_data(uop.seq)
        if uop.m_remaining == 0:
            self.m_uop = None
            self.w_uop = uop
            return True
        return False

    def _memory_access(self, uop: _Uop) -> None:
        """First Memory cycle of a load/store: cache access + data move."""
        instr = uop.instr
        address = uop.mem_addr
        hit = self.cache.access(address, is_store=instr.is_store)
        uop.mem_hit = hit
        cache_cfg = self.config.cache
        uop.m_remaining = cache_cfg.hit_extra_cycles + \
            (0 if hit else cache_cfg.miss_extra_cycles)
        self.trace.cache_access(self.cycle, address, instr.is_store, hit,
                                uop.seq)
        rec = self.recorder
        if instr.is_store:
            self.memory.store(address, uop.store_val,
                              store_width(instr.name))
            self.latches.write("M", mem_addr=address,
                               mem_wdata=uop.store_val,
                               mem_ctrl=control_word(instr, 8))
            if rec is not None:
                rec.store(uop.seq)
        else:
            nbytes, signed = load_width(instr.name)
            uop.result = self.memory.load(address, nbytes, signed)
            self.latches.write("M", mem_addr=address,
                               mem_ctrl=control_word(instr, 8))
            if rec is not None:
                rec.load_address(uop.seq)
            if uop.m_remaining == 0:
                self.latches.write_mem_rdata(uop.result)
                uop.result_ready = True
                if rec is not None:
                    rec.load_data(uop.seq)
        self.trace.record("M", uop.tag, ACTIVE_HIT if hit else ACTIVE_MISS)

    # ------------------------------------------------------------------
    # Execute
    # ------------------------------------------------------------------
    def _stage_execute(self, mem_free: bool) -> Tuple[bool, Optional[int]]:
        """Process Execute; returns (slot free for Decode, flush redirect)."""
        uop = self.e_uop
        if uop is None:
            self.latches.write_bubble("E")
            if self.recorder is not None:
                self.recorder.bubble("E")
            return True, None

        if not uop.e_started:
            uop.e_started = True
            redirect = self._execute_first_cycle(uop)
            if uop.e_remaining == 0 and mem_free:
                self.e_uop = None
                self.m_uop = uop
                return True, redirect
            if uop.e_remaining == 0 and not mem_free:
                return False, redirect
            return False, redirect

        if not mem_free and uop.e_remaining == 0:
            # finished, waiting for the Memory stage to drain
            self.trace.record("E", uop.tag, STALLED)
            self.trace.stall(self.cycle, "E", StallCause.MEM_BUSY, uop.seq)
            return False, None
        if uop.e_remaining == 0:
            # previously finished, was waiting on Memory; transits quietly
            self.trace.record("E", uop.tag, STALLED)
        if uop.e_remaining > 0:
            uop.e_remaining -= 1
            if uop.e_remaining == 0:
                # final multiply/divide cycle: result registers switch
                self.latches.write("E", alu_out=uop.result,
                                   muldiv_lo=uop.result,
                                   muldiv_hi=(uop.rs1_val * uop.rs2_val)
                                   >> 32)
                uop.result_ready = True
                if self.recorder is not None:
                    self.recorder.muldiv_result(uop.seq, high=True)
                self.trace.record("E", uop.tag, ACTIVE_FINAL)
            else:
                self.trace.record("E", uop.tag, STALLED)
                self.trace.stall(self.cycle, "E", StallCause.EX_BUSY,
                                 uop.seq)
        if uop.e_remaining == 0 and mem_free:
            self.e_uop = None
            self.m_uop = uop
            return True, None
        return False, None

    def _execute_first_cycle(self, uop: _Uop) -> Optional[int]:
        """First Execute cycle: compute, resolve control flow."""
        instr = uop.instr
        rec = self.recorder
        a, b = uop.rs1_val, uop.rs2_val
        register_b = instr.fmt.value in ("R", "S", "B")
        operand_b = b if register_b else (instr.imm & MASK32)
        self.latches.write_execute(a, operand_b, control_word(instr, 8))
        if rec is not None:
            rec.execute(uop.seq, uop.pc, register_b)
        self.trace.record("E", uop.tag, ACTIVE)
        redirect: Optional[int] = None

        if instr.is_branch:
            uop.taken = branch_taken(instr, a, b)
            uop.target = control_flow_target(instr, uop.pc, a)
            uop.result_ready = True
            self.latches.write_alu_out(uop.target if uop.taken else 0)
            if rec is not None:  # the outcome is checked on replay
                rec.alu_out(None)
            redirect = self._resolve_control(uop)
        elif instr.name == "jalr":
            uop.taken = True
            uop.target = control_flow_target(instr, uop.pc, a)
            uop.result = (uop.pc + 4) & MASK32
            uop.result_ready = True
            self.latches.write_alu_out(uop.result)
            if rec is not None:  # the link value depends on the PC only
                rec.alu_out(None)
            redirect = self._resolve_control(uop)
        elif instr.is_muldiv:
            uop.result = self._alu(instr, a, b, uop.pc)
            latency = self.config.mul_latency if instr.name.startswith("mul") \
                else self.config.div_latency
            uop.e_remaining = latency - 1
            if uop.e_remaining == 0:
                self.latches.write("E", alu_out=uop.result,
                                   muldiv_lo=uop.result)
                uop.result_ready = True
                if rec is not None:
                    rec.muldiv_result(uop.seq, high=False)
        else:
            uop.result = self._alu(instr, a, b, uop.pc)
            self.latches.write_alu_out(uop.result)
            if rec is not None:
                rec.alu_out(uop.seq)
            if instr.is_load or instr.is_store:
                # the "result" so far is only the effective address; load
                # data becomes forwardable when Memory returns it
                uop.mem_addr = uop.result
                uop.store_val = b
            else:
                uop.result_ready = True
        return redirect

    def _alu(self, instr: Instruction, a: int, b: int, pc: int) -> int:
        """ALU computation, optionally routed through an injected bug."""
        if self.alu_bug is not None:
            bugged = self.alu_bug(instr, a, b)
            if bugged is not None:
                return bugged & MASK32
        return alu_result(instr, a, b, pc)

    def _resolve_control(self, uop: _Uop) -> Optional[int]:
        """Resolve a branch/jalr in Execute; returns a redirect PC if the
        fetch prediction was wrong (triggering a flush)."""
        instr = uop.instr
        actual_target = uop.target if uop.taken else (uop.pc + 4) & MASK32
        predicted_target = uop.pred_target if uop.pred_taken \
            else (uop.pc + 4) & MASK32
        mispredicted = (uop.taken != uop.pred_taken) or \
            (uop.taken and predicted_target != actual_target)
        if instr.is_branch:
            self.predictor.update(uop.pc, uop.taken)
        if uop.taken:
            self.btb.update(uop.pc, uop.target)
        self.trace.branch(self.cycle, uop.pc, uop.taken, actual_target,
                          uop.pred_taken, uop.pred_target, mispredicted,
                          uop.seq)
        return actual_target if mispredicted else None

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def _stage_decode(self, exec_free: bool) -> Optional[int]:
        """Process Decode; returns a fetch redirect PC for unpredicted
        direct jumps (jal), else None."""
        uop = self.d_uop
        if uop is None:
            self.latches.write_bubble("D")
            if self.recorder is not None:
                self.recorder.bubble("D")
            return None
        instr = uop.instr

        if not exec_free:
            cause = StallCause.EX_BUSY if (self.e_uop and
                                           self.e_uop.e_remaining > 0) \
                else StallCause.MEM_BUSY
            self.trace.record("D", uop.tag, STALLED)
            self.trace.stall(self.cycle, "D", cause, uop.seq)
            return None

        operands = {}
        producers = {}
        for reg in instr.unique_sources:
            value, ready, cause, producer = self._operand(reg)
            if not ready:
                self.trace.record("D", uop.tag, STALLED)
                self.trace.stall(self.cycle, "D", cause, uop.seq)
                return None
            operands[reg] = value
            producers[reg] = producer
        uop.rs1_val = operands.get(instr.rs1, 0)
        uop.rs2_val = operands.get(instr.rs2, 0)

        self.latches.write_decode(instr.encode(), uop.rs1_val,
                                  uop.rs2_val, instr.imm & MASK32,
                                  control_word(instr, 12))
        if self.recorder is not None:
            self.recorder.decode(uop.seq, instr, producers)
        self.trace.record("D", uop.tag, ACTIVE)
        self.d_uop = None
        self.e_uop = uop

        if instr.name == "jal":
            uop.taken = True
            uop.target = (uop.pc + instr.imm) & MASK32
            uop.result = (uop.pc + 4) & MASK32
            uop.result_ready = True
            self.btb.update(uop.pc, uop.target)
            if not (uop.pred_taken and uop.pred_target == uop.target):
                return uop.target  # redirect fetch, squash 1 instruction
        return None

    def _operand(self, reg: int):
        """Resolve a source register: value, readiness, stall cause and
        the in-flight uop the value is forwarded from (None when it comes
        from the register file).

        Scans in-flight producers youngest-first (Execute, Memory,
        Writeback slots); falls back to the register file.
        """
        if reg == 0:
            return 0, True, None, None
        for slot, holder in (("E", self.e_uop), ("M", self.m_uop),
                             ("W", self.w_uop)):
            if holder is None or holder.writes_reg != reg:
                continue
            if not self.config.forwarding:
                return 0, False, StallCause.RAW_HAZARD, None
            if holder.result_ready:
                return holder.result, True, None, holder
            cause = StallCause.LOAD_USE if holder.instr.is_load \
                else StallCause.RAW_HAZARD
            return 0, False, cause, None
        return self.regfile.read(reg), True, None, None

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------
    def _stage_fetch(self, decode_redirect: Optional[int]) -> None:
        if decode_redirect is not None:
            # jal resolved in Decode: squash the one wrong-path fetch
            self.f_uop = None
            self.latches.write_bubble("F")
            self.pc = decode_redirect
            self.fetch_halted = False  # squashed fetch may have halted us
            return
        if self.f_uop is not None:
            # Decode is still occupied: the fetched instruction waits
            self.trace.record("F", self.f_uop.tag, STALLED)
            self.trace.stall(self.cycle, "F", StallCause.RAW_HAZARD,
                             self.f_uop.seq)
            return
        if self.fetch_halted:
            self.latches.write_bubble("F")
            return
        instr = self.program.instruction_at(self.pc)
        if instr is None:
            self.fetch_halted = True
            self.latches.write_bubble("F")
            return
        seq = self.next_seq
        uop = _Uop(instr, self.pc, seq, self.trace.tag(instr, seq))
        self.next_seq = seq + 1
        self._predict(uop)
        self.latches.write_fetch(self.pc, instr.encode(),
                                 int(uop.pred_taken) |
                                 (self.predictor.state_signature() << 1))
        self.trace.record("F", uop.tag, ACTIVE)
        self.f_uop = uop
        self.pc = uop.pred_target if (uop.pred_taken and
                                      uop.pred_target is not None) \
            else (self.pc + 4) & MASK32
        if instr.name in ("ecall", "ebreak"):
            self.fetch_halted = True

    def _predict(self, uop: _Uop) -> None:
        """Fetch-time branch/jump prediction via predictor + BTB."""
        instr = uop.instr
        if self.oracle is not None and (instr.is_branch or instr.is_jump):
            outcome = self.oracle.pop(uop.pc)
            if outcome is not None:
                uop.pred_taken, uop.pred_target = outcome
                return
        if instr.is_branch:
            target = self.btb.lookup(uop.pc)
            taken = self.predictor.predict(uop.pc) and target is not None
            uop.pred_taken = taken
            uop.pred_target = target
        elif instr.is_jump:
            target = self.btb.lookup(uop.pc)
            uop.pred_taken = target is not None
            uop.pred_target = target


def run_seed(program, config=DEFAULT_CONFIG, max_cycles=None, alu_bug=None,
             oracle=None):
    """Run ``program`` on a fresh seed core; returns ``(trace, core)``."""
    core = SeedPipeline(program, config=config, alu_bug=alu_bug,
                        oracle=oracle)
    return core.run(max_cycles=max_cycles), core


# ---------------------------------------------------------------------------
# the seed schedule recorder
# ---------------------------------------------------------------------------
# Data columns a bubble write resets to its (data-independent) pattern.
_BUBBLE_RESETS = {
    stage: tuple(index for index, (column_stage, name)
                 in enumerate(DATA_COLUMNS)
                 if column_stage == stage and name in bubble_pattern(stage))
    for stage in ("D", "E", "M", "W")}

(_RS1_VAL, _RS2_VAL, _ALU_A, _ALU_B, _ALU_OUT, _MULDIV_LO, _MULDIV_HI,
 _MEM_ADDR, _MEM_WDATA, _MEM_RDATA, _WB_DATA) = range(len(DATA_COLUMNS))

_CONSTANT = -1          # the column holds the recorded value
_REGISTERS = 32         # slots of the initial register file
_ALU, _RESULT, _MULHI = range(3)
_FIELDS = 3             # slots per dynamic instruction
_PLAIN, _MULDIV, _LOAD, _STORE, _BRANCH, _JALR = (PLAIN, MULDIV, LOAD, STORE,
                                                  BRANCH, JALR)


def _slot(seq: int, field: int) -> int:
    """Value-table slot of one field of dynamic instruction ``seq``."""
    return _REGISTERS + _FIELDS * seq + field


class ScheduleRecorder:
    """Data-latch provenance of one scalar core run, cycle by cycle.

    The :class:`~repro.uarch.pipeline.Pipeline` calls one method per
    data-latch write (and per bubble write of a stage with data
    columns), so the provenance follows the core's own write sites.
    ``registers`` is the register file the run starts from.
    """

    def __init__(self, registers: Sequence[int]) -> None:
        self.registers = tuple(int(value) for value in registers)
        self._refs: List[int] = [_CONSTANT] * len(DATA_COLUMNS)
        self._rows: List[int] = []
        # slot holding each architectural register's current value
        self._writers: List[int] = list(range(_REGISTERS))
        self._operands: Dict[int, Tuple[int, int]] = {}
        self._stream: List[Tuple[int, int, int, int]] = []

    # -- the core's write sites ------------------------------------------
    def bubble(self, stage: str) -> None:
        """``stage``'s latches snapped to the bubble pattern."""
        for column in _BUBBLE_RESETS[stage]:
            self._refs[column] = _CONSTANT

    def decode(self, seq: int, instr: Instruction,
               producers: Dict[int, Any]) -> None:
        """Decode latched the operands; ``producers`` maps each source
        register to the in-flight uop it was forwarded from (``None``
        for a register-file read)."""
        sources = []
        for reg in (instr.rs1, instr.rs2):
            if reg == 0 or reg not in producers:
                sources.append(0)
            elif producers[reg] is not None:
                sources.append(_slot(producers[reg].seq, _RESULT))
            else:
                sources.append(self._writers[reg])
        self._operands[seq] = (sources[0], sources[1])
        self._refs[_RS1_VAL], self._refs[_RS2_VAL] = sources

    def execute(self, seq: int, pc: int, register_b: bool) -> None:
        """First Execute cycle: ALU inputs latched (operand B is the
        immediate unless ``register_b``)."""
        first, second = self._operands[seq]
        self._stream.append((seq, pc, first, second))
        self._refs[_ALU_A] = first
        self._refs[_ALU_B] = second if register_b else _CONSTANT

    def alu_out(self, seq: Optional[int]) -> None:
        """ALU output latched: ``seq``'s ALU value, or (``None``) a value
        fixed by the PC and the checked control-flow outcome."""
        self._refs[_ALU_OUT] = _CONSTANT if seq is None \
            else _slot(seq, _ALU)

    def muldiv_result(self, seq: int, high: bool) -> None:
        """Final multiply/divide cycle: result (and high word) latched."""
        self._refs[_ALU_OUT] = self._refs[_MULDIV_LO] = _slot(seq, _RESULT)
        if high:
            self._refs[_MULDIV_HI] = _slot(seq, _MULHI)

    def store(self, seq: int) -> None:
        """Store address and data on the memory buses."""
        self._refs[_MEM_ADDR] = _slot(seq, _ALU)
        self._refs[_MEM_WDATA] = self._operands[seq][1]

    def load_address(self, seq: int) -> None:
        """Load address on the memory address bus."""
        self._refs[_MEM_ADDR] = _slot(seq, _ALU)

    def load_data(self, seq: int) -> None:
        """Load data returned on the read-data bus."""
        self._refs[_MEM_RDATA] = _slot(seq, _RESULT)

    def writeback(self, seq: int, rd: Optional[int]) -> None:
        """Writeback latched ``seq``'s result (when it has a destination)
        and committed it to register ``rd``."""
        if rd is None:
            self._refs[_WB_DATA] = _CONSTANT
            return
        self._refs[_WB_DATA] = self._writers[rd] = _slot(seq, _RESULT)

    def end_cycle(self) -> None:
        """Snapshot this cycle's provenance row."""
        self._rows.extend(self._refs)

    # -- the recorded schedule -------------------------------------------
    def schedule(self, trace: ActivityTrace, program: Program,
                 config: CoreConfig) -> "Schedule":
        """Freeze the recorded run into a :class:`Schedule`.

        Each executed step is precompiled: it carries its mnemonic's
        :data:`~repro.uarch.isa_exec.ALU_FUNCTIONS` entry (a branch, its
        :data:`~repro.uarch.isa_exec.BRANCH_CONDITIONS` entry) and its
        immediate, so replaying it reads no instruction.
        """
        instructions = program.instructions
        taken = {seq: was_taken for _, _, was_taken, _, _, _, _, seq
                 in trace._branch_rows}
        targets = {seq: target for _, _, _, target, _, _, _, seq
                   in trace._branch_rows}
        hits = {seq: hit for _, _, _, hit, seq in trace._cache_rows}
        steps = []
        for seq, pc, first, second in self._stream:
            instr = instructions[(pc - TEXT_BASE) >> 2]
            name = instr.name
            kind, function, width, expected = (_PLAIN, ALU_FUNCTIONS[name],
                                               None, None)
            if instr.is_branch:
                kind, function, expected = (_BRANCH, BRANCH_CONDITIONS[name],
                                            taken[seq])
            elif name == "jalr":
                kind, expected = _JALR, targets[seq]
            elif instr.is_load:
                kind, width, expected = _LOAD, load_width(name), hits.get(seq)
            elif instr.is_store:
                kind, width, expected = (_STORE, store_width(name),
                                         hits.get(seq))
            elif instr.is_muldiv:
                kind = _MULDIV
            steps.append((kind, function, instr.imm, pc, first, second,
                          _slot(seq, _ALU), width, expected))
        refs = np.asarray(self._rows, dtype=np.intp).reshape(
            trace.num_cycles, len(DATA_COLUMNS))
        live = refs >= 0
        rows, columns = np.nonzero(live)
        return Schedule(
            cache=config.cache,
            registers=self.registers,
            steps=tuple(steps),
            slots=_slot(1 + max((seq for seq, _, _, _ in self._stream),
                                default=-1), 0),
            values=_frozen(trace._values_all()),
            cells=_frozen(rows * TOTAL_REGISTERS + _FLAT_COLUMNS[columns]),
            sources=_frozen(refs[live]),
            packed={stage: tuple(column)
                    for stage, column in trace._packed.items()},
            codes={column: {stage: _frozen(array)
                            for stage, array in by_stage.items()}
                   for column, by_stage in trace._unpacked().items()},
            instructions=tuple(instructions),
            table=tuple(trace._instr_table),
            ids=dict(trace._instr_ids),
            stalls=tuple(trace._stall_rows),
            branch_events=tuple(trace._branch_rows),
            flushes=tuple(trace._flush_rows),
            cache_events=tuple(trace._cache_rows),
            retired=tuple(trace._retire_rows))


def seed_record(program, config, max_cycles=None):
    """Run ``program`` on the seed core with a :class:`ScheduleRecorder`;
    returns ``(trace, recorder)``."""
    core = SeedPipeline(program, config=config)
    recorder = ScheduleRecorder(core.regfile.dump())
    core.recorder = recorder
    return core.run(max_cycles=max_cycles), recorder


def run_legacy(program, ooo: bool = False, **options):
    """Run ``program`` on a fresh seed core (``ooo``: the out-of-order
    core) recording through the seed's trace and latches; returns
    ``(trace, core)``."""
    core = OutOfOrderCore(program, **options) if ooo \
        else SeedPipeline(program, **options)
    core.latches = LegacyHardwareLatches()
    core.trace = LegacyActivityTrace()
    return core.run(), core


def trace_bytes(trace) -> bytes:
    """A columnar trace's content as bytes, for equality checks.

    The cycle count and latch matrix, then each stage's kind, dyn and
    seq codes and the machine word of its instruction per cycle (-1 for
    none), then the event rows with every instruction as its machine
    word.  Two traces with the same content give the same bytes,
    whatever the order of their instruction tables.
    """
    codes = trace._unpacked()
    words = np.array([-1] + [instr.encode() for instr in trace._instr_table],
                     dtype=np.int64)
    parts = [np.int64(trace.num_cycles).tobytes(),
             np.ascontiguousarray(trace._values_all()).tobytes()]
    for stage in STAGES:
        parts += [codes["kind"][stage].tobytes(),
                  codes["dyn"][stage].tobytes(),
                  codes["seq"][stage].tobytes(),
                  words[codes["instr"][stage] + 1].tobytes()]
    events = (trace._stall_rows, trace._cache_rows, trace._branch_rows,
              trace._flush_rows,
              [(seq, pc, instr.encode(), cycle)
               for seq, pc, instr, cycle in trace._retire_rows])
    parts.append(repr(events).encode())
    return b"".join(parts)


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
# statistics
# ---------------------------------------------------------------------------
def two_pass_welch_t(traces_fixed, traces_random):
    """Per-sample Welch t between two trace groups, cut to the shortest
    trace of either; zero-variance points yield t = 0."""
    length = min(len(trace) for trace in [*traces_fixed, *traces_random])
    group_a = np.vstack([np.asarray(trace[:length], dtype=float)
                         for trace in traces_fixed])
    group_b = np.vstack([np.asarray(trace[:length], dtype=float)
                         for trace in traces_random])
    var_a = group_a.var(axis=0, ddof=1) / group_a.shape[0]
    var_b = group_b.var(axis=0, ddof=1) / group_b.shape[0]
    denominator = np.sqrt(var_a + var_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denominator > 0,
                        (group_a.mean(axis=0) - group_b.mean(axis=0)) /
                        denominator, 0.0)


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
# ALU semantics
# ---------------------------------------------------------------------------
MASK32 = 0xFFFFFFFF


def _signed(value: int) -> int:
    return sign_extend(value, 32)


def seed_alu_result(instr, a: int, b: int, pc: int) -> int:
    """The seed's primary 32-bit result of an instruction: a chain of
    mnemonic tests.

    ``a``/``b`` are the unsigned register operand values.  For loads/stores
    the result is the effective address; for jumps it is the link value.
    """
    name = instr.name
    imm = instr.imm
    if name in ("add", "addi"):
        rhs = b if name == "add" else imm
        return (a + rhs) & MASK32
    if name == "sub":
        return (a - b) & MASK32
    if name in ("and", "andi"):
        return a & (b if name == "and" else to_unsigned(imm))
    if name in ("or", "ori"):
        return a | (b if name == "or" else to_unsigned(imm))
    if name in ("xor", "xori"):
        return a ^ (b if name == "xor" else to_unsigned(imm))
    if name in ("slt", "slti"):
        rhs = _signed(b) if name == "slt" else imm
        return 1 if _signed(a) < rhs else 0
    if name in ("sltu", "sltiu"):
        rhs = b if name == "sltu" else to_unsigned(imm)
        return 1 if a < rhs else 0
    if name in ("sll", "slli"):
        shamt = (b if name == "sll" else imm) & 0x1F
        return (a << shamt) & MASK32
    if name in ("srl", "srli"):
        shamt = (b if name == "srl" else imm) & 0x1F
        return a >> shamt
    if name in ("sra", "srai"):
        shamt = (b if name == "sra" else imm) & 0x1F
        return (_signed(a) >> shamt) & MASK32
    if name == "lui":
        return (imm << 12) & MASK32
    if name == "auipc":
        return (pc + (imm << 12)) & MASK32
    if name in ("jal", "jalr"):
        return (pc + 4) & MASK32
    if instr.is_load or instr.is_store:
        return (a + imm) & MASK32
    if instr.is_muldiv:
        return seed_muldiv_result(name, a, b)
    if instr.is_branch:
        return (pc + imm) & MASK32  # branch target (condition is separate)
    if name in ("fence", "ecall", "ebreak"):
        return 0
    raise AssemblerError(f"no ALU semantics for {name}")


def seed_muldiv_result(name: str, a: int, b: int) -> int:
    """The seed's RV32M multiply/divide semantics (including
    divide-by-zero rules), a chain of mnemonic tests."""
    sa, sb = _signed(a), _signed(b)
    if name == "mul":
        return (sa * sb) & MASK32
    if name == "mulh":
        return ((sa * sb) >> 32) & MASK32
    if name == "mulhsu":
        return ((sa * b) >> 32) & MASK32
    if name == "mulhu":
        return ((a * b) >> 32) & MASK32
    if name == "div":
        if b == 0:
            return MASK32  # -1
        if sa == -(1 << 31) and sb == -1:
            return 1 << 31  # overflow: returns dividend
        quotient = abs(sa) // abs(sb)
        return (-quotient if (sa < 0) != (sb < 0) else quotient) & MASK32
    if name == "divu":
        return MASK32 if b == 0 else (a // b) & MASK32
    if name == "rem":
        if b == 0:
            return a
        if sa == -(1 << 31) and sb == -1:
            return 0
        remainder = abs(sa) % abs(sb)
        return (-remainder if sa < 0 else remainder) & MASK32
    if name == "remu":
        return a if b == 0 else (a % b) & MASK32
    raise AssemblerError(f"not a muldiv instruction: {name}")


# ---------------------------------------------------------------------------
# modulo fold
# ---------------------------------------------------------------------------
def seed_offset_bins(sample_times, period, num_bins):
    """Each sample's Eq. 1 offset bin, ``round(offset / period *
    num_bins)``, wrapped by an integer ``% num_bins``."""
    offsets = np.mod(np.asarray(sample_times, dtype=float), period)
    return np.round(offsets / period * num_bins).astype(int) % num_bins


def per_repetition_capture(scope, continuous, duration_cycles,
                           repetitions):
    """``scope.capture_repetition_list`` as a per-repetition loop: each
    delivered repetition draws its jitter, then its noise as one
    ``rng.normal(0, noise_rms, count)`` array, then its corruption;
    ``y`` runs once on every delivered grid, each row adds its own noise
    array, and the quantizer clips into a fresh array.  Sets
    ``scope.last_repetition_stats`` as the scope does."""
    from repro.signal.acquisition import RepetitionStats

    config, injector, rng = scope.config, scope.injector, scope.rng
    count = int(duration_cycles * config.effective_rate)
    delivered, jitters, noise, recipes = [], [], [], []
    lost = 0
    for repetition in range(repetitions):
        if injector is not None:
            try:
                injector.begin_capture()
            except AcquisitionError:
                lost += 1
                continue
        delivered.append(repetition)
        jitters.append(rng.uniform(0, config.trigger_jitter_cycles))
        noise.append(rng.normal(0.0, config.noise_rms, size=count))
        if injector is not None:
            recipes.append(injector.draw_corruption(count))
    scope.last_repetition_stats = RepetitionStats(requested=repetitions,
                                                  lost=lost)
    if not delivered:
        return np.empty((0, count)), np.empty((0, count))

    def quantize(samples):
        step = config.adc_range / (2 ** config.adc_bits)
        codes = np.clip(samples, -config.adc_range / 2,
                        config.adc_range / 2 - step)
        return np.round(codes / step) * step

    jitters = np.array(jitters)
    samples = continuous(jitters, count, 1.0 / config.effective_rate) \
        .reshape(len(jitters), count)
    for row, row_noise in zip(samples, noise):
        row += row_noise
    times = jitters[:, None] + np.arange(count) / config.effective_rate
    shifts = np.array(delivered, dtype=float) * duration_cycles
    if recipes:
        times, samples = zip(*(
            injector.apply_corruption(recipe, row_times, row)
            for recipe, row_times, row in zip(recipes, times, samples)))
        if len({len(row) for row in samples}) > 1:
            return ([row + shift for row, shift in zip(times, shifts)],
                    [quantize(row) for row in samples])
        times, samples = np.array(times), np.array(samples)
    times += shifts[:, None]
    return times, quantize(samples)


# ---------------------------------------------------------------------------
# trace-cache keys
# ---------------------------------------------------------------------------
def seed_trace_keys(program, config, core_kind="in-order", max_cycles=None,
                    salt=""):
    """``(code_family_key, trace_key)`` of ``program``: the entry
    ``repr``, the 32-bit little-endian code words, then the data image
    as (8-byte address, 1-byte value) pairs in address order, hashed
    after the run settings."""
    sections = hashlib.sha256()
    sections.update(repr(program.entry).encode())
    machine_code = program.machine_code
    code = np.fromiter(machine_code, dtype=np.int64,
                       count=len(machine_code))
    sections.update((code & 0xFFFFFFFF).astype("<u4").tobytes())
    code_digest = sections.copy().digest()
    addresses = sorted(program.data)
    data = np.empty(len(addresses),
                    dtype=[("address", "<u8"), ("value", "u1")])
    data["address"] = addresses
    values = np.fromiter(
        (program.data[address] for address in addresses),
        dtype=np.int64, count=len(addresses))
    data["value"] = values & 0xFF
    sections.update(data.tobytes())

    def key(section_digest):
        hasher = hashlib.sha256(TRACE_KEY_VERSION.encode())
        hasher.update(repr(config).encode())
        hasher.update(core_kind.encode())
        hasher.update(repr(max_cycles).encode())
        hasher.update(salt.encode())
        hasher.update(section_digest)
        return hasher.hexdigest()

    return key(code_digest), key(sections.digest())


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
    """Per-unit amplitudes with one ``static_activity`` call per cycle,
    unit by unit, each unit's flips from its stage's
    :func:`seed_transition_matrix`."""
    cycles = trace.num_cycles
    amplitudes = np.zeros((cycles, len(emitter.units)))
    for column, unit in enumerate(emitter.units):
        static = np.fromiter(
            (unit.static_activity(label)
             for label in trace.em_classes(unit.stage)),
            dtype=float, count=cycles)
        flips = seed_transition_matrix(trace, unit.stage)[
            :, unit.bit_indices] @ unit.bit_weights
        amplitudes[:, column] = static + flips
    return amplitudes


def seed_signal_on_grid(emitter, trace, samples_per_cycle):
    """The ideal capture: every unit's :func:`seed_unit_amplitudes` as
    impulses in a fresh buffer, convolved with its sampled kernel."""
    amplitudes = seed_unit_amplitudes(emitter, trace)
    total = np.zeros(trace.num_cycles * samples_per_cycle)
    for column, unit in enumerate(emitter.units):
        impulses = np.zeros_like(total)
        impulses[::samples_per_cycle] = amplitudes[:, column]
        response = unit.kernel.sampled(samples_per_cycle)
        scaled = emitter.gain * emitter._couplings[column]
        total += scaled * np.convolve(impulses, response)[:len(total)]
    return total


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


def per_repetition_continuous(emitter, trace):
    """The grid evaluator ``y(starts, count, step)`` one repetition at a
    time: the complex per-cycle tables of
    :meth:`~repro.hardware.emitter.HardwareEmitter.continuous`, with
    ``Z[n]`` and the carried ``Z[n + 1] * e^(-lam)`` interleaved as rows
    ``2n`` and ``2n + 1``; each repetition scales them by its own
    ``e^(lam * frac(start))``, gathers one row per sample and takes a
    real dot product with the shared ``(Im P, Re P)`` weights."""
    kernels = [unit.kernel for unit in emitter.units]
    weighted = emitter.unit_amplitudes(trace) * \
        (emitter.gain * emitter._couplings)[None, :]
    supports = np.array([int(np.ceil(kernel.support_cycles))
                         for kernel in kernels])
    lags = np.arange(supports.max() + 1)
    lam = np.array([2j * np.pi / kernel.t0 - kernel.theta
                    for kernel in kernels])
    lag_factor = np.where(lags[:, None] <= supports[None, :],
                          np.exp(np.multiply.outer(lags, lam)), 0.0)
    pad = len(lags)
    rows = trace.num_cycles + 2 * pad
    padded = np.zeros((rows + 1, len(kernels)))
    padded[pad:pad + trace.num_cycles] = weighted
    table = np.zeros(padded.shape, dtype=complex)
    for lag in lags:
        table[lag:] += padded[:len(padded) - lag] * lag_factor[lag]
    table *= np.exp(1j * np.array([kernel.phase for kernel in kernels]))
    pairs = np.empty((rows, 2, len(kernels)), dtype=complex)
    pairs[:, 0] = table[:-1]
    pairs[:, 1] = table[1:] * np.exp(-lam)
    pairs = pairs.reshape(2 * rows, len(kernels))
    scale = emitter.clock_scale

    def evaluate(starts, count, step):
        starts = np.asarray(starts, dtype=float) / scale
        grid = np.arange(count) * step / scale
        grid_cycle = np.floor(grid)
        grid_frac = grid - grid_cycle
        start_cycle = np.floor(starts)
        start_frac = starts - start_cycle
        shared = np.exp(np.multiply.outer(grid_frac, lam))
        weights = np.stack([shared.imag, shared.real], axis=-1) \
            .reshape(count, 2 * len(kernels))
        base = 2 * (grid_cycle.astype(int) + pad)
        result = np.empty((len(starts), count))
        for row, cycle, frac in zip(result, start_cycle.astype(int),
                                    start_frac):
            lead = (pairs * np.exp(frac * lam)).view(float)
            index = np.clip(base + 2 * cycle, 0, 2 * rows - 2)
            index += grid_frac >= 1.0 - frac
            np.einsum("ij,ij->i", np.take(lead, index, axis=0), weights,
                      out=row)
        return result.ravel()

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
# trace views
# ---------------------------------------------------------------------------
def _bit_tables(stage):
    """(register column, shift) of every transition bit of ``stage``."""
    columns, shifts = [], []
    for column, (_, width) in enumerate(STAGE_REGISTERS[stage]):
        columns.extend([column] * width)
        shifts.extend(range(width))
    return np.asarray(columns, dtype=np.intp), np.asarray(shifts,
                                                          dtype=np.uint64)


def seed_transition_matrix(trace, stage):
    """(cycles, bits) flips of one stage: XOR its own latch rows, then
    shift and mask every bit out of its register."""
    values = trace._vals[:trace.num_cycles, STAGE_SLICES[stage]]
    xor = np.ascontiguousarray(values)
    if xor is values:
        xor = values.copy()
    xor[1:] ^= values[:-1]
    columns, shifts = _bit_tables(stage)
    return ((xor[:, columns] >> shifts) & np.uint64(1)).astype(np.uint8)


def seed_unpacked(trace):
    """``{column: {stage: array}}`` decoded stage by stage, with the EM
    row of every instruction-table entry classified by
    :meth:`StageOccupancy.em_class`."""
    rows = [(0,) * len(_DYN_NAMES)]
    rows.extend(tuple(EM_INDEX.get(StageOccupancy(OCC_INSTR, instr, None,
                                                  dyn).em_class(), 0)
                      for dyn in _DYN_NAMES)
                for instr in trace._instr_table)
    em_lookup = np.array(rows, dtype=np.uint8)
    codes = {column: {} for column in ("kind", "instr", "seq", "dyn", "em")}
    for stage in STAGES:
        packed = np.asarray(trace._packed[stage], dtype=np.uint64)
        kind = (packed & np.uint64(3)).astype(np.uint8)
        dyn = ((packed >> np.uint64(2)) & np.uint64(3)).astype(np.uint8)
        instr = ((packed >> np.uint64(_INSTR_SHIFT)) &
                 np.uint64((1 << _INSTR_BITS) - 1)).astype(np.int32) - 1
        seq = (packed >> np.uint64(_SEQ_SHIFT)).astype(np.int32) - 1
        codes["kind"][stage] = kind
        codes["instr"][stage] = instr
        codes["seq"][stage] = seq
        codes["dyn"][stage] = dyn
        codes["em"][stage] = np.where(
            kind == KIND_BUBBLE, np.uint8(EM_INDEX["nop"]),
            np.where(kind == KIND_STALL, np.uint8(EM_INDEX["stall"]),
                     em_lookup[instr + 1, dyn]))
    return codes


def swar_popcount(words):
    """Set bits of every element of a ``uint64`` array, by SWAR."""
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    words = words - ((words >> np.uint64(1)) & m1)
    words = (words & m2) + ((words >> np.uint64(2)) & m2)
    words = (words + (words >> np.uint64(4))) & m4
    return (words * h01) >> np.uint64(56)


def seed_stage_design_matrices(traces, stage, columns=None, rows=None):
    """The stacked designs of ``traces`` as gathers of their whole
    :func:`seed_stage_design_matrix` designs, ``full[:, columns][rows]``,
    which the production build promises to equal in values and memory
    order."""
    design = np.vstack([seed_stage_design_matrix(trace, stage)
                        for trace in traces])
    if columns is not None:
        design = design[:, columns]
    if rows is not None:
        design = design[rows]
    return design


# ---------------------------------------------------------------------------
# activity factors
# ---------------------------------------------------------------------------
def seed_stage_design_matrix(trace, stage):
    """The whole stage design: per-register sums of the float transition
    bits (:func:`seed_transition_matrix`), then the bits themselves."""
    bits = seed_transition_matrix(trace, stage).astype(float)
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


# ---------------------------------------------------------------------------
# accuracy metric
# ---------------------------------------------------------------------------
def seed_per_cycle_similarities(simulated, measured, samples_per_cycle,
                                epsilon=1e-12):
    """Per-cycle ``2 <s, r> / (<s, s> + <r, r>)`` scored cycle by cycle."""
    simulated = normalize_energy(simulated)
    measured = normalize_energy(measured)
    length = min(len(simulated), len(measured))
    num_cycles = length // samples_per_cycle
    scores = np.empty(num_cycles)
    for cycle in range(num_cycles):
        start = cycle * samples_per_cycle
        stop = start + samples_per_cycle
        sim_seg = simulated[start:stop]
        meas_seg = measured[start:stop]
        energy = float(np.dot(sim_seg, sim_seg) +
                       np.dot(meas_seg, meas_seg))
        if energy < epsilon:
            scores[cycle] = 1.0  # two silent cycles match perfectly
            continue
        scores[cycle] = 2.0 * float(np.dot(sim_seg, meas_seg)) / energy
    return scores

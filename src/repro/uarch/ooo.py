"""Out-of-order RV32IM core — the paper's §VIII future-work extension.

The paper: "We believe that EMSim can be extended to more complex
processors by using a similar multi-input-single-output methodology, where
each pipeline stage acts as a single source. ... we do not expect any
fundamental modeling difference between in-order and OoO designs."

This core implements a compact single-issue out-of-order machine:

* in-order fetch with the same predictor/BTB as the in-order core;
* decode/rename into a reorder buffer (ROB) with register renaming via
  per-register producer tags;
* reservation-station style wakeup: an instruction executes as soon as
  its operands are ready and its functional unit (ALU, multi-cycle
  MUL/DIV, load-store unit) is free — independent ALU work overlaps
  cache misses and long divides;
* loads/stores issue through the LSU in program order (no speculation
  past stores), using the same :class:`~repro.uarch.cache.DataCache`;
* in-order commit from the ROB; branch mispredictions flush the younger
  ROB entries and redirect fetch.

Crucially it emits the *same* :class:`~repro.uarch.trace.ActivityTrace`
(stage occupancy + latch values per cycle) as the in-order pipeline, with
the stage sources mapped to Fetch / Rename / Execute / Memory / Commit —
so the entire EM stack (emitter, training, EMSim) runs on it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.instructions import Instruction
from ..isa.program import Program
from .branch import BranchTargetBuffer, make_predictor
from .cache import DataCache
from .config import CoreConfig, DEFAULT_CONFIG
from .events import StallCause
from .isa_exec import (alu_result, branch_taken, control_flow_target,
                       load_width, store_width)
from .latches import HardwareLatches, STAGES, control_word
from .memory import MainMemory
from .regfile import RegisterFile
from .trace import (ACTIVE, ACTIVE_FINAL, ACTIVE_HIT, ACTIVE_MISS,
                    KIND_BUBBLE, STALLED, STALLED_HIT, STALLED_MISS,
                    ActivityTrace)

MASK32 = 0xFFFFFFFF


@dataclass
class _RobEntry:
    """One in-flight instruction in the reorder buffer."""

    instr: Instruction
    pc: int
    seq: int
    tag: object                  # the trace's occupancy tag
    pred_taken: bool = False
    pred_target: Optional[int] = None
    # operand readiness: (True, value) or (False, producer _RobEntry)
    operands: Dict[int, Tuple[bool, object]] = field(default_factory=dict)
    # execution state
    issued: bool = False
    remaining: int = 0
    completed: bool = False
    result: int = 0
    writes: Optional[int] = None
    mem_addr: int = 0
    mem_hit: Optional[bool] = None
    taken: bool = False
    target: int = 0
    mispredicted: bool = False
    squashed: bool = False

    @property
    def is_memory(self) -> bool:
        return self.instr.is_load or self.instr.is_store


class OutOfOrderCore:
    """Single-issue OoO core with ROB + renaming + FU-level overlap."""

    ROB_SIZE = 16

    def __init__(self, program: Program,
                 config: CoreConfig = DEFAULT_CONFIG):
        self.program = program
        self.config = config
        self.regfile = RegisterFile()
        self.memory = MainMemory(program.data)
        self.cache = DataCache(config.cache)
        self.predictor = make_predictor(config.predictor,
                                        config.predictor_history_bits,
                                        config.predictor_table_bits)
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.latches = HardwareLatches()
        self.trace = ActivityTrace()

        self.pc = program.entry
        self.cycle = 0
        self.next_seq = 0
        self.fetch_halted = False
        self.halted = False

        self.rob: List[_RobEntry] = []          # oldest first
        # latest producer (ROB entry) per architectural register
        self.producer: Dict[int, _RobEntry] = {}
        # functional-unit busy state: entry currently executing
        self.alu_busy: Optional[_RobEntry] = None
        self.muldiv_busy: Optional[_RobEntry] = None
        self.lsu_busy: Optional[_RobEntry] = None
        self.fetched: Optional[_RobEntry] = None   # decode next cycle

    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> ActivityTrace:
        """Run to completion (or ``max_cycles``)."""
        limit = max_cycles if max_cycles is not None \
            else self.config.max_cycles
        while not self.halted and self.cycle < limit:
            self.step()
        return self.trace

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One clock cycle: commit, complete/execute, issue, rename,
        fetch.  Stages record occupancy straight into the trace;
        stages left as bubbles get the bubble latch pattern before the
        cycle's single latch snapshot."""
        self.trace.begin_cycle()
        self._commit()
        self._execute()
        self._issue()
        redirect = self._rename()
        self._fetch(redirect)

        for stage in STAGES:
            if self.trace.stage_kind_at(stage) == KIND_BUBBLE:
                self.latches.write_bubble(stage)
        self.trace.end_cycle(self.latches)
        self.cycle += 1
        if self.fetch_halted and not self.rob and self.fetched is None:
            self.halted = True

    # ------------------------------------------------------------------
    # commit (stage W)
    # ------------------------------------------------------------------
    def _commit(self) -> None:
        if not self.rob:
            return
        head = self.rob[0]
        if not head.completed:
            if head.issued:
                self.trace.record("W", head.tag, STALLED)
                self.trace.stall(self.cycle, "W", StallCause.RAW_HAZARD,
                                 head.seq)
            return
        self.rob.pop(0)
        if head.writes is not None:
            self.regfile.write(head.writes, head.result)
        if self.producer.get(head.writes) is head:
            del self.producer[head.writes]
        self.latches.write_writeback(
            head.result if head.writes is not None else 0,
            head.writes or 0, 1 if head.writes is not None else 0)
        self.trace.record("W", head.tag, ACTIVE)
        self.trace.retire(head.seq, head.pc, head.instr, self.cycle)
        if head.instr.name in ("ecall", "ebreak"):
            self.fetch_halted = True
            self._flush_younger_than(head, redirect=None)
        elif head.mispredicted:
            # resolve the misprediction at commit of the branch
            target = head.target if head.taken else (head.pc + 4) & MASK32
            self._flush_younger_than(head, redirect=target)

    def _flush_younger_than(self, entry: _RobEntry,
                            redirect: Optional[int]) -> None:
        flushed = len(self.rob)
        for younger in self.rob:
            younger.squashed = True
        self.rob.clear()
        self.producer.clear()
        self.fetched = None
        self.alu_busy = self.muldiv_busy = self.lsu_busy = None
        if redirect is not None:
            self.pc = redirect
            self.fetch_halted = False
            self.trace.flush(self.cycle, flushed, redirect)

    # ------------------------------------------------------------------
    # execute / complete (stages E and M)
    # ------------------------------------------------------------------
    def _operand_value(self, entry: _RobEntry, reg: int) -> Tuple[bool,
                                                                  int]:
        ready, value = entry.operands[reg]
        if ready:
            return True, value
        # value is the producer _RobEntry captured at rename time
        producer = value
        if producer.completed:
            entry.operands[reg] = (True, producer.result)
            return entry.operands[reg]
        return False, 0

    def _ready(self, entry: _RobEntry) -> bool:
        return all(self._operand_value(entry, reg)[0]
                   for reg in entry.operands)

    def _execute(self) -> None:
        # multi-cycle units tick down
        for attribute in ("muldiv_busy", "lsu_busy"):
            entry = getattr(self, attribute)
            if entry is None:
                continue
            entry.remaining -= 1
            if entry.remaining > 0:
                if attribute == "lsu_busy":
                    self.trace.record(
                        "M", entry.tag,
                        STALLED_HIT if entry.mem_hit else STALLED_MISS)
                else:
                    self.trace.record("E", entry.tag, STALLED)
                continue
            # completes this cycle
            entry.completed = True
            if attribute == "muldiv_busy":
                self.latches.write("E", alu_out=entry.result,
                                   muldiv_lo=entry.result)
                self.trace.record("E", entry.tag, ACTIVE_FINAL)
            else:
                if entry.instr.is_load:
                    self.latches.write_mem_rdata(entry.result)
                self.trace.record(
                    "M", entry.tag,
                    STALLED_HIT if entry.mem_hit else STALLED_MISS)
            setattr(self, attribute, None)
        # single-cycle ALU result was computed at issue; free the unit
        if self.alu_busy is not None:
            self.alu_busy.completed = True
            self.alu_busy = None

    # ------------------------------------------------------------------
    def _issue(self) -> None:
        """Wake up at most one ready instruction per free unit."""
        for entry in self.rob:
            if entry.issued or not self._ready(entry):
                continue
            instr = entry.instr
            if entry.is_memory:
                if self.lsu_busy is not None:
                    continue
                # memory ops issue in program order w.r.t. other memory
                older_memory = [other for other in self.rob
                                if other.seq < entry.seq
                                and other.is_memory
                                and not other.completed]
                if older_memory:
                    continue
                if entry.instr.is_store and any(
                        other.seq < entry.seq and
                        (not other.completed or other.mispredicted)
                        for other in self.rob):
                    # a store mutates memory: it must not issue while any
                    # older instruction could still squash it
                    continue
                self._issue_memory(entry)
                entry.issued = True
                continue
            if instr.is_muldiv:
                if self.muldiv_busy is not None:
                    continue
                self._issue_muldiv(entry)
                entry.issued = True
                continue
            if self.alu_busy is not None:
                continue
            self._issue_alu(entry)
            entry.issued = True
            # one ALU-class issue per cycle
        # (loop continues so one ALU + one MUL + one MEM may issue
        #  in the same cycle — genuinely parallel functional units)

    def _operands(self, entry: _RobEntry) -> Tuple[int, int]:
        a = self._operand_value(entry, entry.instr.rs1)[1] \
            if entry.instr.rs1 in entry.operands else 0
        b = self._operand_value(entry, entry.instr.rs2)[1] \
            if entry.instr.rs2 in entry.operands else 0
        return a, b

    def _issue_alu(self, entry: _RobEntry) -> None:
        instr = entry.instr
        a, b = self._operands(entry)
        if instr.is_branch:
            entry.taken = branch_taken(instr, a, b)
            entry.target = control_flow_target(instr, entry.pc, a)
            predicted = entry.pred_target if entry.pred_taken \
                else (entry.pc + 4) & MASK32
            actual = entry.target if entry.taken \
                else (entry.pc + 4) & MASK32
            entry.mispredicted = (entry.taken != entry.pred_taken) or \
                (entry.taken and predicted != actual)
            self.predictor.update(entry.pc, entry.taken)
            if entry.taken:
                self.btb.update(entry.pc, entry.target)
            self.trace.branch(self.cycle, entry.pc, entry.taken, actual,
                              entry.pred_taken, entry.pred_target,
                              entry.mispredicted, entry.seq)
            entry.result = 0
        elif instr.is_jump:
            entry.taken = True
            entry.target = control_flow_target(instr, entry.pc, a)
            predicted = entry.pred_target if entry.pred_taken else None
            entry.mispredicted = predicted != entry.target
            self.btb.update(entry.pc, entry.target)
            entry.result = (entry.pc + 4) & MASK32
        else:
            entry.result = alu_result(instr, a, b, entry.pc)
        operand_b = b if instr.fmt.value in ("R", "S", "B") \
            else (instr.imm & MASK32)
        self.latches.write_execute_out(a, operand_b, entry.result,
                                       control_word(instr, 8))
        self.trace.record("E", entry.tag, ACTIVE)
        self.alu_busy = entry

    def _issue_muldiv(self, entry: _RobEntry) -> None:
        instr = entry.instr
        a, b = self._operands(entry)
        entry.result = alu_result(instr, a, b, entry.pc)
        latency = self.config.mul_latency if instr.name.startswith("mul") \
            else self.config.div_latency
        entry.remaining = latency
        self.latches.write("E", alu_a=a, alu_b=b,
                           ex_ctrl=control_word(instr, 8),
                           muldiv_hi=(a * b) >> 32)
        if self.trace.stage_kind_at("E") == KIND_BUBBLE:
            self.trace.record("E", entry.tag, ACTIVE)
        self.muldiv_busy = entry

    def _issue_memory(self, entry: _RobEntry) -> None:
        instr = entry.instr
        a, b = self._operands(entry)
        address = (a + instr.imm) & MASK32
        entry.mem_addr = address
        hit = self.cache.access(address, is_store=instr.is_store)
        entry.mem_hit = hit
        cache_cfg = self.config.cache
        entry.remaining = 1 + cache_cfg.hit_extra_cycles + \
            (0 if hit else cache_cfg.miss_extra_cycles)
        self.trace.cache_access(self.cycle, address, instr.is_store, hit,
                                entry.seq)
        if instr.is_store:
            self.memory.store(address, b, store_width(instr.name))
            self.latches.write("M", mem_addr=address, mem_wdata=b,
                               mem_ctrl=control_word(instr, 8))
        else:
            nbytes, signed = load_width(instr.name)
            entry.result = self.memory.load(address, nbytes, signed)
            self.latches.write("M", mem_addr=address,
                               mem_ctrl=control_word(instr, 8))
        self.trace.record("M", entry.tag, ACTIVE_HIT if hit else ACTIVE_MISS)
        self.lsu_busy = entry

    # ------------------------------------------------------------------
    # rename (stage D)
    # ------------------------------------------------------------------
    def _rename(self) -> Optional[int]:
        entry = self.fetched
        if entry is None:
            return None
        if len(self.rob) >= self.ROB_SIZE:
            self.trace.record("D", entry.tag, STALLED)
            self.trace.stall(self.cycle, "D", StallCause.RAW_HAZARD,
                             entry.seq)
            return None
        instr = entry.instr
        for reg in instr.unique_sources:
            if reg == 0:
                entry.operands[reg] = (True, 0)
            elif reg in self.producer:
                # capture the producing ROB entry: later renames of the
                # same register must not change this dependence
                entry.operands[reg] = (False, self.producer[reg])
            else:
                entry.operands[reg] = (True, self.regfile.peek(reg))
        entry.writes = instr.destination_register
        self.rob.append(entry)
        if instr.name in ("ecall", "ebreak", "fence"):
            entry.completed = True
        if entry.writes is not None:
            self.producer[entry.writes] = entry
        self.fetched = None

        def latch_value(reg):
            ready, value = entry.operands.get(reg, (True, 0))
            # a pending operand reads the (stale) architectural register,
            # which is what the physical read port latches at rename
            return value if ready else self.regfile.peek(reg)

        rs1_val = latch_value(instr.rs1)
        rs2_val = latch_value(instr.rs2)
        self.latches.write_decode(instr.encode(), rs1_val, rs2_val,
                                  instr.imm & MASK32,
                                  control_word(instr, 12))
        self.trace.record("D", entry.tag, ACTIVE)
        if instr.name == "jal":
            target = (entry.pc + instr.imm) & MASK32
            self.btb.update(entry.pc, target)
            if not (entry.pred_taken and entry.pred_target == target):
                entry.pred_taken = True
                entry.pred_target = target
                return target  # early redirect; one bubble
        return None

    # ------------------------------------------------------------------
    # fetch (stage F)
    # ------------------------------------------------------------------
    def _fetch(self, redirect: Optional[int]) -> None:
        if redirect is not None:
            self.pc = redirect
            self.fetch_halted = False
            return
        if self.fetched is not None:
            self.trace.record("F", self.fetched.tag, STALLED)
            return
        if self.fetch_halted:
            return
        instr = self.program.instruction_at(self.pc)
        if instr is None:
            self.fetch_halted = True
            return
        seq = self.next_seq
        entry = _RobEntry(instr=instr, pc=self.pc, seq=seq,
                          tag=self.trace.tag(instr, seq))
        self.next_seq = seq + 1
        if instr.is_branch:
            target = self.btb.lookup(self.pc)
            entry.pred_taken = self.predictor.predict(self.pc) and \
                target is not None
            entry.pred_target = target
        elif instr.is_jump:
            target = self.btb.lookup(self.pc)
            entry.pred_taken = target is not None
            entry.pred_target = target
        self.latches.write_fetch(self.pc, instr.encode(),
                                 int(entry.pred_taken))
        self.trace.record("F", entry.tag, ACTIVE)
        self.fetched = entry
        self.pc = entry.pred_target if (entry.pred_taken and
                                        entry.pred_target is not None) \
            else (self.pc + 4) & MASK32
        if instr.name in ("ecall", "ebreak"):
            self.fetch_halted = True


def run_program_ooo(program: Program,
                    config: CoreConfig = DEFAULT_CONFIG,
                    max_cycles: Optional[int] = None
                    ) -> Tuple[ActivityTrace, OutOfOrderCore]:
    """Run ``program`` on a fresh OoO core; returns (trace, core)."""
    core = OutOfOrderCore(program, config=config)
    trace = core.run(max_cycles=max_cycles)
    return trace, core

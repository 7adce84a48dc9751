"""Per-cycle microarchitectural activity trace.

The pipeline produces an :class:`ActivityTrace`: for every cycle and every
stage, (a) *who* occupies the stage — a real instruction, a bubble, or a
stalled instruction — and (b) the values of all of the stage's hardware
latches.  From the latter the trace derives the *transition-bit vectors*
that both the ground-truth hardware emitter and EMSim's activity-factor
regression (Eq. 8 of the paper) consume.

The production trace is **columnar**: per-stage integer-code arrays for
occupancy (kind / EM class / dynamic sequence number / dynamic tag) and
one ``uint64`` matrix of latch values, all preallocated and grown by
doubling.  Recording a cycle writes integer codes by direct index and
snapshots the latches with a single row copy — no per-cycle objects.
Every derived view of the seed API (``occupancy``, ``stage_kinds``,
``active_mask``, ``em_class`` sequences, ``cycles_of``,
``instruction_labels``, ``transition_matrix``) is preserved, computed
lazily and vectorized.

Recording protocol (what the cores call)::

    trace.begin_cycle()
    trace.record(stage, KIND_INSTR, instr, seq, DYN_HIT)   # active stages
    trace.stage_kind_at(stage)                             # mid-cycle peek
    trace.end_cycle(latches)                               # snapshot + advance

Stages never recorded in a cycle default to the pipeline bubble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa.instructions import Instruction
from ..isa.spec import InstrClass
from .events import BranchEvent, CacheEvent, FlushEvent, StallEvent
from .latches import (STAGE_REGISTERS, STAGE_SLICES, STAGES, TOTAL_REGISTERS,
                      stage_bit_count)

OCC_INSTR = "instr"
OCC_BUBBLE = "bubble"
OCC_STALL = "stall"

KIND_INSTR = 0
KIND_BUBBLE = 1
KIND_STALL = 2

_KIND_NAMES: Tuple[str, ...] = (OCC_INSTR, OCC_BUBBLE, OCC_STALL)

DYN_NONE = 0
DYN_HIT = 1
DYN_MISS = 2
DYN_FINAL = 3

_DYN_NAMES: Tuple[Optional[str], ...] = (None, "hit", "miss", "final")

EM_CLASSES = ("nop", "stall", "alu", "shift", "muldiv", "muldiv_final",
              "load", "load_cache", "load_mem", "store", "branch", "jump",
              "system")
"""All behavioural class labels :meth:`StageOccupancy.em_class` can yield."""

EM_INDEX: Dict[str, int] = {name: code
                            for code, name in enumerate(EM_CLASSES)}
"""EM-class label -> code, the values :meth:`ActivityTrace.em_codes`
holds.  Consumers index per-class tables (length ``len(EM_CLASSES)``)
with those codes instead of comparing labels cycle by cycle."""

# repro: allow[N203] EM-class indices are tiny enum codes (< 16)
_EM_NOP_U8 = np.uint8(EM_INDEX["nop"])
# repro: allow[N203] EM-class indices are tiny enum codes (< 16)
_EM_STALL_U8 = np.uint8(EM_INDEX["stall"])


@dataclass(frozen=True)
class StageOccupancy:
    """What one stage was doing during one cycle."""

    kind: str                      # OCC_INSTR / OCC_BUBBLE / OCC_STALL
    instr: Optional[Instruction] = None
    seq: Optional[int] = None      # dynamic instruction number
    dyn: Optional[str] = None      # dynamic tag, e.g. "hit"/"miss" for loads

    @property
    def active(self) -> bool:
        """True when the stage is doing real instruction work."""
        return self.kind == OCC_INSTR

    def em_class(self) -> str:
        """Behavioural class label used by the EM models.

        One of: ``nop``, ``stall``, ``alu``, ``shift``, ``muldiv``,
        ``load`` (``load_cache``/``load_mem`` once the cache outcome is
        known), ``store``, ``branch``, ``jump``, ``system``.  NOPs and
        bubbles share a label: a bubble *is* an injected NOP (paper §IV).
        """
        if self.kind == OCC_BUBBLE:
            return "nop"
        if self.kind == OCC_STALL:
            return "stall"
        assert self.instr is not None
        if self.instr.is_nop:
            return "nop"
        if self.instr.is_load:
            if self.dyn == "hit":
                return "load_cache"
            if self.dyn == "miss":
                return "load_mem"
            return "load"
        if self.dyn == "final":
            # last Execute cycle of a multi-cycle unit: the result
            # registers switch, a distinct (larger) signature
            return self.instr.cls.value + "_final"
        return self.instr.cls.value

    def label(self) -> str:
        """Readable label, e.g. ``lw+miss``, ``bubble``, ``add(stall)``."""
        if self.kind == OCC_BUBBLE:
            return "bubble"
        name = self.instr.name if self.instr else "?"
        if self.dyn:
            name = f"{name}+{self.dyn}"
        return name if self.kind == OCC_INSTR else f"{name}(stall)"


_BUBBLE_OCC = StageOccupancy(OCC_BUBBLE)

_NO_INSTR_ROW: Tuple[int, ...] = (0,) * len(_DYN_NAMES)

_EM_ROWS: Dict[Tuple[InstrClass, bool], Tuple[int, ...]] = {}


def _em_row(instr: Instruction) -> Tuple[int, ...]:
    """EM-class codes of ``instr`` as an active occupant, per dyn tag.

    :meth:`StageOccupancy.em_class` reads only ``instr.cls`` and
    ``instr.is_nop``, so the row is computed once per such signature
    through the reference logic and shared by every instruction that
    has it.  Combinations the cores never record (e.g. an ALU op tagged
    ``final``) fall outside :data:`EM_CLASSES`; their slots are never
    indexed, so they hold the filler code 0.
    """
    signature = (instr.cls, instr.is_nop)
    row = _EM_ROWS.get(signature)
    if row is None:
        row = tuple(
            EM_INDEX.get(StageOccupancy(OCC_INSTR, instr, None,
                                        dyn).em_class(), 0)
            for dyn in _DYN_NAMES)
        _EM_ROWS[signature] = row
    return row


@dataclass
class RetiredInstruction:
    """One instruction that completed writeback."""

    seq: int
    pc: int
    instr: Instruction
    cycle: int


def _build_bit_tables():
    """Per-stage (register column, shift) tables for transition vectors.

    For each stage the transition matrix lists every latch bit in schema
    order, LSB first within a register.  These flat index tables turn
    the seed's per-register Python loop into one fancy-index broadcast.
    """
    columns: Dict[str, np.ndarray] = {}
    shifts: Dict[str, np.ndarray] = {}
    for stage in STAGES:
        column_ids: List[int] = []
        bit_shifts: List[int] = []
        for column, (_, width) in enumerate(STAGE_REGISTERS[stage]):
            column_ids.extend([column] * width)
            bit_shifts.extend(range(width))
        columns[stage] = np.asarray(column_ids, dtype=np.intp)
        shifts[stage] = np.asarray(bit_shifts, dtype=np.uint64)
    return columns, shifts


_BIT_COLUMNS, _BIT_SHIFTS = _build_bit_tables()

_INITIAL_CAPACITY = 512

# Packed occupancy-code layout: one Python int per stage per cycle.
# bits 0-1: kind, bits 2-3: dyn, bits 8-31: instr code + 1 (24 bits),
# bits 32-62: seq + 1 (31 bits).  A single list store per record keeps
# the per-cycle cost at a couple of integer ops; the five code columns
# (and the derived EM-class column) unpack lazily and vectorized.
_PACK_BUBBLE = KIND_BUBBLE
_INSTR_SHIFT = 8
_INSTR_BITS = 24
_SEQ_SHIFT = 32


class ActivityTrace:
    """Cycle-by-cycle record of pipeline occupancy and latch values.

    Storage is columnar: ``_vals`` is a preallocated, doubling
    ``(capacity, TOTAL_REGISTERS)`` ``uint64`` matrix (whole-pipeline
    latch snapshot per row, one vectorized row copy per cycle) and each
    stage has one packed-int code column (kind / dyn / instruction-table
    index / dynamic sequence number in a single machine word, one list
    store per record).  Rows open as bubbles, so a cycle that never
    records a stage needs no explicit bubble write.  The seed's object
    API — ``occupancy``, ``stage_kinds``, ``active_mask``, ``em_class``
    sequences, ``cycles_of``, ``instruction_labels`` — is served by
    lazy vectorized views that unpack (and cache) on demand.
    """

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(int(capacity), 1)
        self._n = 0
        self._capacity = capacity
        self._vals = np.zeros((capacity, TOTAL_REGISTERS), dtype=np.uint64)
        self._packed: Dict[str, List[int]] = {stage: []
                                              for stage in STAGES}
        self._appenders = tuple(self._packed[stage].append
                                for stage in STAGES)
        self.stalls: List[StallEvent] = []
        self.cache_events: List[CacheEvent] = []
        self.branch_events: List[BranchEvent] = []
        self.flushes: List[FlushEvent] = []
        self.retired: List[RetiredInstruction] = []
        self._instr_table: List[Instruction] = []
        self._instr_ids: Dict[int, int] = {}
        self._transition_cache: Dict[str, np.ndarray] = {}
        self._codes_cache: Dict[str, object] = {}
        self._occ_cache: Dict[str, object] = {}

    # -- recording (called by the pipeline) -----------------------------
    def begin_cycle(self) -> None:
        """Open the next cycle's row: every stage starts as a bubble."""
        if self._n >= self._capacity:
            self._grow()
        for append in self._appenders:
            append(_PACK_BUBBLE)

    def record(self, stage: str, kind: int,
               instr: Optional[Instruction] = None, seq: int = -1,
               dyn: int = DYN_NONE) -> None:
        """Record ``stage``'s occupancy for the open cycle.

        ``kind`` is a ``KIND_*`` code, ``seq`` the dynamic instruction
        number (``-1`` for none) and ``dyn`` a ``DYN_*`` code.  May be
        called again for the same stage (e.g. a flush squashing it); the
        last record wins.
        """
        if instr is None:
            code = 0
        else:
            code = self._instr_ids.get(id(instr), 0)
            if code == 0:
                table = self._instr_table
                table.append(instr)
                code = len(table)
                self._instr_ids[id(instr)] = code
        self._packed[stage][-1] = (kind | (dyn << 2) |
                                   (code << _INSTR_SHIFT) |
                                   ((seq + 1) << _SEQ_SHIFT))

    def stage_kind_at(self, stage: str) -> int:
        """The ``KIND_*`` code currently recorded for ``stage`` in the
        open cycle (the opening bubble until :meth:`record` runs)."""
        return self._packed[stage][-1] & 3

    def end_cycle(self, latches) -> None:
        """Snapshot the flat latch vector and advance to the next cycle."""
        self._vals[self._n] = latches.flat_values()
        self._n += 1

    def _grow(self) -> None:
        """Double the latch-value buffer, preserving recorded rows."""
        capacity = self._capacity * 2
        vals = np.zeros((capacity, TOTAL_REGISTERS), dtype=np.uint64)
        vals[:self._n] = self._vals[:self._n]
        self._vals = vals
        self._capacity = capacity

    # -- pickling ---------------------------------------------------------
    def __reduce__(self):
        """Pickle as ``repro-trace/1`` codec bytes.

        Worker pools and checkpoints ship traces between processes; the
        codec payload is both several times smaller than the seed's
        object-graph pickle and deterministic, so pickled bytes of
        identically recorded traces compare equal.
        """
        from .tracecodec import decode_trace, encode_trace
        return (decode_trace, (encode_trace(self),))

    @classmethod
    def _from_columns(cls, cycles: int, values: np.ndarray,
                      codes: Dict[str, Dict[str, np.ndarray]],
                      instr_table: List[Instruction]) -> "ActivityTrace":
        """Build a trace directly from decoded codec sections."""
        trace = cls(capacity=cycles)
        trace._n = cycles
        trace._vals[:cycles] = values
        for stage in STAGES:
            kind = codes["kind"][stage].astype(np.int64)
            dyn = codes["dyn"][stage].astype(np.int64)
            instr = codes["instr"][stage].astype(np.int64)
            seq = codes["seq"][stage].astype(np.int64)
            packed = (kind | (dyn << 2) | ((instr + 1) << _INSTR_SHIFT) |
                      ((seq + 1) << _SEQ_SHIFT))
            trace._packed[stage][:] = packed.tolist()
        trace._instr_table = list(instr_table)
        trace._instr_ids = {id(instr): code + 1 for code, instr
                            in enumerate(trace._instr_table)}
        return trace

    @classmethod
    def _assemble(cls, values: np.ndarray,
                  packed: Dict[str, Sequence[int]],
                  instr_table: List[Instruction],
                  codes: Dict[str, Dict[str, np.ndarray]]
                  ) -> "ActivityTrace":
        """Build a trace from finished parts (schedule replay).

        ``values`` becomes the latch store as it is; ``packed`` and
        ``instr_table`` are copied, and copies of the unpacked ``codes``
        columns (which must match ``packed``) seed the unpack cache.
        """
        trace = cls(capacity=1)
        cycles = values.shape[0]
        trace._vals = values
        trace._n = trace._capacity = cycles
        for stage in STAGES:
            trace._packed[stage].extend(packed[stage])
        trace._instr_table = list(instr_table)
        trace._instr_ids = {id(instr): code for code, instr
                            in enumerate(trace._instr_table, start=1)}
        trace._codes_cache = {"n": cycles, "codes": {
            column: {stage: array.copy() for stage, array in by_stage.items()}
            for column, by_stage in codes.items()}}
        return trace

    def _values_all(self) -> np.ndarray:
        """(cycles, TOTAL_REGISTERS) whole-pipeline latch matrix view."""
        return self._vals[:self._n]

    def _unpacked(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Unpack the code columns to per-stage arrays, cached per n.

        Returns ``{column: {stage: array}}`` for columns ``kind`` /
        ``instr`` / ``seq`` / ``dyn`` / ``em`` — the ``em`` column is
        derived vectorized from a per-instruction lookup table built
        with the reference :meth:`StageOccupancy.em_class` logic.
        """
        cache = self._codes_cache
        if cache.get("n") == self._n:
            return cache["codes"]  # type: ignore[return-value]
        em_lookup = self._em_lookup()
        codes: Dict[str, Dict[str, np.ndarray]] = {
            column: {} for column in ("kind", "instr", "seq", "dyn", "em")}
        for stage in STAGES:
            packed = np.asarray(self._packed[stage], dtype=np.uint64)
            # repro: allow[N203] masked to two bits, uint8 is lossless
            kind = (packed & np.uint64(3)).astype(np.uint8)
            # repro: allow[N203] masked to two bits, uint8 is lossless
            dyn = ((packed >> np.uint64(2)) & np.uint64(3)).astype(np.uint8)
            # repro: allow[N203] instr indices are bounded by the 24-bit
            # pack width, so int32 is lossless.
            instr = ((packed >> np.uint64(_INSTR_SHIFT)) &
                     np.uint64((1 << _INSTR_BITS) - 1)
                     ).astype(np.int32) - 1
            # repro: allow[N203] seq fits the 31-bit pack field
            seq = (packed >> np.uint64(_SEQ_SHIFT)).astype(np.int32) - 1
            codes["kind"][stage] = kind
            codes["instr"][stage] = instr
            codes["seq"][stage] = seq
            codes["dyn"][stage] = dyn
            codes["em"][stage] = np.where(
                kind == KIND_BUBBLE, _EM_NOP_U8,
                np.where(kind == KIND_STALL, _EM_STALL_U8,
                         em_lookup[instr + 1, dyn]))
        self._codes_cache = {"n": self._n, "codes": codes}
        return codes

    def _em_lookup(self) -> np.ndarray:
        """(instr codes + 1, dyn codes) EM-class table for active stages.

        Row 0 covers "no instruction" (never hit for ``KIND_INSTR``);
        row ``i + 1`` classifies instruction-table entry ``i`` under
        each dynamic tag (see :func:`_em_row`).
        """
        rows = [_NO_INSTR_ROW]
        rows.extend(_em_row(instr) for instr in self._instr_table)
        # repro: allow[N203] every entry is an EM_INDEX code (< 16)
        return np.array(rows, dtype=np.uint8)

    def _code_column(self, column: str, stage: str) -> np.ndarray:
        """One recorded code column (codec serialization accessor)."""
        return self._unpacked()[column][stage]

    # -- shape ------------------------------------------------------------
    @property
    def num_cycles(self) -> int:
        """Total simulated cycles."""
        return self._n

    # -- derived matrices ---------------------------------------------------
    def values_matrix(self, stage: str) -> np.ndarray:
        """(cycles, registers) uint64 matrix of latch values for ``stage``.

        A read-only view of the columnar store — no conversion cost.
        """
        return self._vals[:self._n, STAGE_SLICES[stage]]

    def transition_matrix(self, stage: str) -> np.ndarray:
        """(cycles, bits) 0/1 matrix of latch bit-flips for ``stage``.

        Row ``n`` holds the flips between cycle ``n-1`` and cycle ``n``
        (cycle 0 is compared with the all-zero reset state).  Computed as
        one shift-table broadcast over the XOR of adjacent latch rows;
        cached after the first computation.
        """
        cache = self._transition_cache
        if stage in cache and cache[stage].shape[0] == self._n:
            return cache[stage]
        values = self.values_matrix(stage)
        xor = np.ascontiguousarray(values)
        if xor is values:
            xor = values.copy()
        xor[1:] ^= values[:-1]
        # repro: allow[N203] each element is masked to a single bit
        # (0 or 1) before the cast, so uint8 is lossless here.
        bits = ((xor[:, _BIT_COLUMNS[stage]] >> _BIT_SHIFTS[stage]) &
                np.uint64(1)).astype(np.uint8)
        cache[stage] = bits
        return bits

    def flip_counts(self, stage: str) -> np.ndarray:
        """(cycles,) total latch bit-flips per cycle for ``stage``."""
        return self.transition_matrix(stage).sum(axis=1)

    def total_flip_counts(self) -> np.ndarray:
        """(cycles,) bit-flips per cycle summed over all stages."""
        return np.stack([self.flip_counts(stage)
                         for stage in STAGES]).sum(axis=0)

    # -- occupancy views ---------------------------------------------------
    @property
    def occupancy(self) -> Dict[str, List[StageOccupancy]]:
        """Seed-API view: per-stage lists of :class:`StageOccupancy`.

        Materialized lazily from the code columns (shared objects for
        repeated code tuples) and cached until more cycles arrive.
        """
        cached = self._occ_cache
        if cached.get("n") == self._n:
            return cached["occupancy"]  # type: ignore[return-value]
        occupancy = {stage: self._materialize(stage) for stage in STAGES}
        self._occ_cache = {"n": self._n, "occupancy": occupancy}
        return occupancy

    def _materialize(self, stage: str) -> List[StageOccupancy]:
        """Build the occupancy object list for one stage."""
        table = self._instr_table
        memo: Dict[int, StageOccupancy] = {_PACK_BUBBLE: _BUBBLE_OCC}
        out: List[StageOccupancy] = []
        for packed in self._packed[stage]:
            occ = memo.get(packed)
            if occ is None:
                code = (packed >> _INSTR_SHIFT) & ((1 << _INSTR_BITS) - 1)
                seq = (packed >> _SEQ_SHIFT) - 1
                occ = StageOccupancy(
                    _KIND_NAMES[packed & 3],
                    table[code - 1] if code else None,
                    seq if seq >= 0 else None,
                    _DYN_NAMES[(packed >> 2) & 3])
                memo[packed] = occ
            out.append(occ)
        return out

    def stage_kinds(self, stage: str) -> List[str]:
        """Occupancy kind per cycle for ``stage``."""
        return [_KIND_NAMES[code] for code
                in self._unpacked()["kind"][stage].tolist()]

    def active_mask(self, stage: str) -> np.ndarray:
        """(cycles,) boolean: stage doing real instruction work."""
        return self._unpacked()["kind"][stage] == KIND_INSTR

    def stall_mask(self, stage: str) -> np.ndarray:
        """(cycles,) boolean: stage frozen by a stall."""
        return self._unpacked()["kind"][stage] == KIND_STALL

    def em_codes(self, stage: str) -> np.ndarray:
        """(cycles,) EM-class codes (indices into :data:`EM_CLASSES`)."""
        return self._unpacked()["em"][stage]

    def em_classes(self, stage: str) -> List[str]:
        """Per-cycle EM-class labels for ``stage`` (vectorized view of
        what ``[occ.em_class() for occ in occupancy[stage]]`` yields)."""
        return [EM_CLASSES[code] for code
                in self._unpacked()["em"][stage].tolist()]

    def seqs(self, stage: str) -> np.ndarray:
        """(cycles,) dynamic instruction numbers (``-1`` where none)."""
        return self._unpacked()["seq"][stage]

    def instruction_labels(self, stage: str) -> List[str]:
        """Readable per-cycle labels for ``stage`` (for reports/tests)."""
        return [occ.label() for occ in self.occupancy[stage]]

    def cycles_of(self, seq: int, stage: str) -> List[int]:
        """Cycles during which dynamic instruction ``seq`` occupied
        ``stage`` (including stalled cycles)."""
        return np.nonzero(
            self._unpacked()["seq"][stage] == seq)[0].tolist()

    # -- convenience statistics ---------------------------------------------
    @property
    def instructions_retired(self) -> int:
        """Count of retired instructions."""
        return len(self.retired)

    @property
    def mispredictions(self) -> int:
        """Count of mispredicted branch events."""
        return sum(event.mispredicted for event in self.branch_events)

    @property
    def cache_misses(self) -> int:
        """Count of data-cache misses."""
        return sum(not event.hit for event in self.cache_events)

    def stage_bits(self, stage: str) -> int:
        """Number of tracked latch bits for ``stage``."""
        return stage_bit_count(stage)


def concat_traces(traces: Sequence[ActivityTrace]) -> ActivityTrace:
    """Concatenate traces cycle-wise (for stitched training corpora).

    The inputs merge by array copy into one exactly-sized trace.
    """
    traces = list(traces)
    total = sum(trace.num_cycles for trace in traces)
    merged = ActivityTrace(capacity=total)
    merged._n = total
    instr_mask = np.uint64(((1 << _INSTR_BITS) - 1) << _INSTR_SHIFT)
    clear_instr = ~instr_mask
    offset = 0
    for trace in traces:
        n = trace.num_cycles
        merged._vals[offset:offset + n] = trace._vals[:n]
        # 1-based instruction-code remap; slot 0 stays "no instruction"
        remap = np.zeros(len(trace._instr_table) + 1, dtype=np.uint64)
        for code, instr in enumerate(trace._instr_table, start=1):
            merged_code = merged._instr_ids.get(id(instr), 0)
            if merged_code == 0:
                merged._instr_table.append(instr)
                merged_code = len(merged._instr_table)
                merged._instr_ids[id(instr)] = merged_code
            remap[code] = merged_code
        for stage in STAGES:
            packed = np.asarray(trace._packed[stage][:n], dtype=np.uint64)
            codes = (packed & instr_mask) >> np.uint64(_INSTR_SHIFT)
            packed = (packed & clear_instr) | (
                remap[codes] << np.uint64(_INSTR_SHIFT))
            merged._packed[stage].extend(packed.tolist())
        merged.stalls.extend(trace.stalls)
        merged.cache_events.extend(trace.cache_events)
        merged.branch_events.extend(trace.branch_events)
        merged.flushes.extend(trace.flushes)
        merged.retired.extend(trace.retired)
        offset += n
    return merged

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
doubling.  Events (stalls, cache accesses, branches, flushes,
retirements) are kept as plain tuple rows.  Recording builds no
occupancy or event object: a stage record ORs a per-instruction tag
with a state code into one list slot, an event appends one tuple, and
a cycle ends with a single latch row copy.  Every derived view of the
seed API (``occupancy``, ``stage_kinds``, ``active_mask``, ``em_class``
sequences, ``cycles_of``, ``instruction_labels``, ``transition_matrix``,
and the event lists ``stalls`` / ``cache_events`` / ``branch_events`` /
``flushes`` / ``retired``) is preserved, built lazily on first read and
rebuilt once more cycles or rows arrive.

The in-order :class:`~repro.uarch.pipeline.Pipeline` builds the same
codes and rows in its own cycle loop and hands them over when a run
returns (:meth:`ActivityTrace._extend_cycles`,
:meth:`ActivityTrace._extend_events`).  The out-of-order core, and the
seed in-order core that ``tests/oracles.py`` keeps as the compiled
loop's oracle, record one call at a time through this protocol::

    trace.begin_cycle()
    tag = trace.tag(instr, seq)             # once per fetched instruction
    trace.record(stage, tag, ACTIVE_HIT)    # a stage's state this cycle
    trace.stage_kind_at(stage)              # mid-cycle peek
    trace.stall(cycle, stage, cause, seq)   # events, in field order:
    trace.cache_access(cycle, address, is_store, hit, seq)
    trace.branch(cycle, pc, taken, target, predicted_taken,
                 predicted_target, mispredicted, seq)
    trace.flush(cycle, flushed, redirect_pc)
    trace.retire(seq, pc, instr, cycle)
    trace.end_cycle(latches)                # snapshot + advance

Stages never recorded in a cycle default to the pipeline bubble.  The
tag is opaque to the recording core; ``tests/oracles.py`` substitutes a
recorder whose tags are ``(instr, seq)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa.instructions import Instruction
from ..isa.spec import InstrClass
from ..robustness.errors import TraceCodecError
from .events import (BranchEvent, CacheEvent, FlushEvent, StallCause,
                     StallEvent)
from .latches import STAGE_REGISTERS, STAGE_SLICES, STAGES, TOTAL_REGISTERS

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

# The states a core records for a stage: a KIND_* code with its DYN_*
# tag, combined once here so that a record is a single OR.
ACTIVE = KIND_INSTR
ACTIVE_HIT = KIND_INSTR | DYN_HIT << 2
ACTIVE_MISS = KIND_INSTR | DYN_MISS << 2
ACTIVE_FINAL = KIND_INSTR | DYN_FINAL << 2
STALLED = KIND_STALL
STALLED_HIT = KIND_STALL | DYN_HIT << 2
STALLED_MISS = KIND_STALL | DYN_MISS << 2

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
    records a stage needs no explicit bubble write.  Events are rows:
    one tuple per event, in its event type's field order.  The seed's
    object API — ``occupancy``, ``stage_kinds``, ``active_mask``,
    ``em_class`` sequences, ``cycles_of``, ``instruction_labels`` and
    the event lists — is served by lazy views that unpack (and cache)
    on demand.  A pickle carries these columns and rows as they are
    (:meth:`__reduce__`), never the views.
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
        self._stall_rows: List[tuple] = []
        self._cache_rows: List[tuple] = []
        self._branch_rows: List[tuple] = []
        self._flush_rows: List[tuple] = []
        self._retire_rows: List[tuple] = []
        self._instr_table: List[Instruction] = []
        self._instr_ids: Dict[int, int] = {}
        self._transition_cache: Dict[str, np.ndarray] = {}
        self._codes_cache: Dict[str, object] = {}
        self._occ_cache: Dict[str, object] = {}
        self._event_cache: Dict[type, Tuple[int, list]] = {}

    # -- recording (called by the out-of-order core) -----------------------
    def begin_cycle(self) -> None:
        """Open the next cycle's row: every stage starts as a bubble."""
        if self._n >= self._capacity:
            self._grow()
        for append in self._appenders:
            append(_PACK_BUBBLE)

    def tag(self, instr: Instruction, seq: int) -> int:
        """The occupancy tag of dynamic instruction ``seq`` executing
        ``instr``: its instruction-table code and sequence number,
        packed once so that each :meth:`record` is a single OR."""
        code = self._instr_ids.get(id(instr))
        if code is None:
            table = self._instr_table
            table.append(instr)
            code = self._instr_ids[id(instr)] = len(table)
        return (code << _INSTR_SHIFT) | ((seq + 1) << _SEQ_SHIFT)

    def record(self, stage: str, tag: int, state: int) -> None:
        """Record ``stage``'s occupancy for the open cycle.

        ``tag`` comes from :meth:`tag` and ``state`` is one of
        :data:`ACTIVE`, :data:`ACTIVE_HIT`, :data:`ACTIVE_MISS`,
        :data:`ACTIVE_FINAL`, :data:`STALLED`, :data:`STALLED_HIT` or
        :data:`STALLED_MISS`.  A later record of the same stage in the
        same cycle replaces the earlier one.
        """
        self._packed[stage][-1] = tag | state

    def stage_kind_at(self, stage: str) -> int:
        """The ``KIND_*`` code currently recorded for ``stage`` in the
        open cycle (the opening bubble until :meth:`record` runs)."""
        return self._packed[stage][-1] & 3

    def stall(self, cycle: int, stage: str, cause: StallCause,
              seq: int) -> None:
        """``stage`` spent ``cycle`` stalled (a :class:`StallEvent`)."""
        self._stall_rows.append((cycle, stage, cause, seq))

    def cache_access(self, cycle: int, address: int, is_store: bool,
                     hit: bool, seq: int) -> None:
        """One data-cache access (a :class:`CacheEvent`)."""
        self._cache_rows.append((cycle, address, is_store, hit, seq))

    def branch(self, cycle: int, pc: int, taken: bool, target: int,
               predicted_taken: bool, predicted_target: Optional[int],
               mispredicted: bool, seq: int) -> None:
        """A resolved branch or indirect jump (a :class:`BranchEvent`)."""
        self._branch_rows.append((cycle, pc, taken, target, predicted_taken,
                                  predicted_target, mispredicted, seq))

    def flush(self, cycle: int, flushed: int, redirect_pc: int) -> None:
        """A misprediction flush (a :class:`FlushEvent`)."""
        self._flush_rows.append((cycle, flushed, redirect_pc))

    def retire(self, seq: int, pc: int, instr: Instruction,
               cycle: int) -> None:
        """``instr`` completed writeback (a :class:`RetiredInstruction`)."""
        self._retire_rows.append((seq, pc, instr, cycle))

    def end_cycle(self, latches) -> None:
        """Snapshot the flat latch vector and advance to the next cycle."""
        self._vals[self._n] = latches.flat_values()
        self._n += 1

    def _grow(self, needed: int = 0) -> None:
        """Double the latch-value buffer (or more, to hold ``needed``
        rows), preserving recorded rows."""
        capacity = max(self._capacity * 2, needed)
        vals = np.zeros((capacity, TOTAL_REGISTERS), dtype=np.uint64)
        vals[:self._n] = self._vals[:self._n]
        self._vals = vals
        self._capacity = capacity

    # -- pickling ---------------------------------------------------------
    def __reduce__(self):
        """Pickle the trace's own columns, rebuilt by :func:`_restore`.

        The parts are the recorded latch rows, each stage's packed
        occupancy column as a ``uint64`` array, the instruction table
        and the five event-row lists.  Pickle's memo keeps every
        retired row pointing at its instruction-table entry, and
        :class:`~repro.isa.instructions.Instruction` pickles only its
        declared fields.
        """
        n = self._n
        return (_restore, (
            self._vals[:n],
            tuple(np.fromiter(self._packed[stage], dtype=np.uint64, count=n)
                  for stage in STAGES),
            self._instr_table, self._stall_rows, self._cache_rows,
            self._branch_rows, self._flush_rows, self._retire_rows))

    @classmethod
    def _assemble(cls, values: np.ndarray,
                  packed: Dict[str, Sequence[int]],
                  instr_table: Sequence[Instruction],
                  codes: Optional[Dict[str, Dict[str, np.ndarray]]] = None,
                  ids: Optional[Dict[int, int]] = None) -> "ActivityTrace":
        """Build a trace from finished parts (schedule replay, unpickling).

        ``values`` becomes the latch store as it is; ``packed`` and
        ``instr_table`` are copied.  Copies of the unpacked ``codes``
        columns (which must match ``packed``), when given, seed the
        unpack cache; without them it fills on first read.  ``ids``,
        when given, is another trace's table code of each object's
        ``id`` for this very ``instr_table``, and is copied rather than
        rebuilt.
        """
        trace = cls(capacity=1)
        cycles = values.shape[0]
        trace._extend_cycles(values, [packed[stage] for stage in STAGES])
        trace._instr_table = list(instr_table)
        trace._instr_ids = dict(ids) if ids is not None else {
            id(instr): code
            for code, instr in enumerate(trace._instr_table, start=1)}
        if codes is not None:
            trace._codes_cache = {"n": cycles, "codes": {
                column: {stage: array.copy()
                         for stage, array in by_stage.items()}
                for column, by_stage in codes.items()}}
        return trace

    def _extend_cycles(self, values: np.ndarray,
                       packed: Sequence[Sequence[int]]) -> None:
        """Append finished cycles: ``values`` holds their latch rows and
        ``packed`` each stage's occupancy codes, in :data:`STAGES` order.

        A trace with no cycles yet takes ``values`` as its latch store as
        it is; otherwise the rows are copied in, growing the store.
        """
        n = self._n
        cycles = values.shape[0]
        if n == 0:
            self._vals = values
            self._capacity = cycles
        else:
            if n + cycles > self._capacity:
                self._grow(n + cycles)
            self._vals[n:n + cycles] = values
        for stage, column in zip(STAGES, packed):
            self._packed[stage].extend(column)
        self._n = n + cycles

    def _extend_events(self, stalls: Sequence[tuple],
                       cache_events: Sequence[tuple],
                       branch_events: Sequence[tuple],
                       flushes: Sequence[tuple],
                       retired: Sequence[tuple]) -> None:
        """Append event rows, each in its event type's field order."""
        self._stall_rows.extend(stalls)
        self._cache_rows.extend(cache_events)
        self._branch_rows.extend(branch_events)
        self._flush_rows.extend(flushes)
        self._retire_rows.extend(retired)

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

    def instruction_labels(self, stage: str) -> List[str]:
        """Readable per-cycle labels for ``stage`` (for reports/tests)."""
        return [occ.label() for occ in self.occupancy[stage]]

    def cycles_of(self, seq: int, stage: str) -> List[int]:
        """Cycles during which dynamic instruction ``seq`` occupied
        ``stage`` (including stalled cycles)."""
        return np.nonzero(
            self._unpacked()["seq"][stage] == seq)[0].tolist()

    # -- event views -------------------------------------------------------
    def _events(self, rows: List[tuple], event_type: type) -> list:
        """``rows`` as ``event_type`` objects: built on first read and
        rebuilt once more rows arrive."""
        cached = self._event_cache.get(event_type)
        if cached is None or cached[0] != len(rows):
            cached = (len(rows), list(starmap(event_type, rows)))
            self._event_cache[event_type] = cached
        return cached[1]

    @property
    def stalls(self) -> List[StallEvent]:
        """Every stalled stage-cycle, in recording order."""
        return self._events(self._stall_rows, StallEvent)

    @property
    def cache_events(self) -> List[CacheEvent]:
        """Every data-cache access, in recording order."""
        return self._events(self._cache_rows, CacheEvent)

    @property
    def branch_events(self) -> List[BranchEvent]:
        """Every resolved branch and indirect jump, in recording order."""
        return self._events(self._branch_rows, BranchEvent)

    @property
    def flushes(self) -> List[FlushEvent]:
        """Every misprediction flush, in recording order."""
        return self._events(self._flush_rows, FlushEvent)

    @property
    def retired(self) -> List[RetiredInstruction]:
        """Every instruction that completed writeback, in order."""
        return self._events(self._retire_rows, RetiredInstruction)

    # -- convenience statistics ---------------------------------------------
    @property
    def instructions_retired(self) -> int:
        """Count of retired instructions."""
        return len(self._retire_rows)

    @property
    def mispredictions(self) -> int:
        """Count of mispredicted branch events."""
        return sum(row[6] for row in self._branch_rows)

    @property
    def cache_misses(self) -> int:
        """Count of data-cache misses."""
        return sum(not row[3] for row in self._cache_rows)


def _restore(values: np.ndarray, packed: Sequence[np.ndarray],
             instr_table: List[Instruction], stalls: Sequence[tuple],
             cache_events: Sequence[tuple], branch_events: Sequence[tuple],
             flushes: Sequence[tuple], retired: Sequence[tuple]
             ) -> ActivityTrace:
    """Rebuild a pickled :class:`ActivityTrace` from its parts.

    Raises :class:`TraceCodecError` when the parts do not fit this
    build's latch schema: the latch matrix must be 2-D with
    ``TOTAL_REGISTERS`` columns, and there must be one packed column
    per stage, each as long as the matrix.
    """
    if values.ndim != 2 or values.shape[1] != TOTAL_REGISTERS:
        raise TraceCodecError(
            f"latch matrix of shape {values.shape} does not fit this "
            f"build's {TOTAL_REGISTERS}-register schema")
    cycles = values.shape[0]
    if len(packed) != len(STAGES) or any(
            column.shape != (cycles,) for column in packed):
        raise TraceCodecError(
            f"occupancy columns do not match the {cycles} latch rows "
            f"of {len(STAGES)} stages")
    trace = ActivityTrace._assemble(
        values, {stage: column.tolist()
                 for stage, column in zip(STAGES, packed)}, instr_table)
    trace._extend_events(stalls, cache_events, branch_events, flushes,
                         retired)
    return trace

"""Versioned compact binary codec for activity traces (``repro-trace/1``).

The trace cache's disk layer, the supervised pool's IPC, and the
checkpoint journal all ship :class:`~repro.uarch.trace.ActivityTrace`
objects between processes and runs.  Pickling the seed's object graph
(five ``StageOccupancy`` dataclasses plus five value tuples per cycle)
costs hundreds of bytes per simulated cycle; the columnar trace is five
integer-code columns per stage plus one latch-value matrix, so it
serializes as raw little-endian array sections instead.

Layout::

    b"RTRC1\\n"                      6-byte magic, format version 1
    <u4 meta length>                little-endian
    meta JSON (UTF-8)               format name, cycle count, register
                                    schema, array section manifest
    zlib-compressed body            array sections back to back, then
                                    <u4 events length> + events JSON

Everything is deterministic — JSON is dumped with sorted keys, arrays
are C-order little-endian, zlib runs at a fixed level — so two traces
of the same program encode to identical bytes, preserving the cache's
bit-identity contract.  Instructions are stored as their 32-bit machine
words (:meth:`repro.isa.instructions.Instruction.encode` round-trips
through :meth:`~repro.isa.instructions.Instruction.decode` exactly);
event records flatten to JSON rows.  :func:`decode_trace` validates the
magic, the format name, the register schema, and every section length,
raising :class:`TraceCodecError` for truncated or corrupt input —
callers such as the trace cache treat that as a miss.  The cache tells
codec entries from the pickles it writes for other artifact kinds by
their first bytes (a pickle stream never starts with the magic).
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, List

import numpy as np

from ..isa.instructions import Instruction
from ..observability.metrics import get_metrics
from .events import StallCause
from .latches import STAGE_REGISTERS, STAGES, TOTAL_REGISTERS

FORMAT_NAME = "repro-trace/1"
"""The codec format identifier carried in every encoded header."""

MAGIC = b"RTRC1\n"
"""First bytes of every ``repro-trace/1`` stream (never a pickle's)."""

_COMPRESSION_LEVEL = 6  # fixed: compressed bytes must be deterministic

_SCHEMA = [[stage, [[name, width] for name, width in
                    STAGE_REGISTERS[stage]]] for stage in STAGES]

#: occupancy code columns serialized per stage, in section order.
_CODE_COLUMNS = (("kind", "u1"), ("instr", "<i4"), ("seq", "<i4"),
                 ("dyn", "u1"), ("em", "u1"))


# TraceCodecError lives in the typed error hierarchy (exit code 21) and
# is re-exported here, its historical home, for existing callers.
from ..robustness.errors import TraceCodecError


def is_encoded_trace(payload: bytes) -> bool:
    """Whether ``payload`` starts with the ``repro-trace/1`` magic."""
    return payload[:len(MAGIC)] == MAGIC


def _events_document(trace) -> Dict[str, Any]:
    """Flatten the trace's event rows and instruction table to JSON rows.

    Retired instructions index into the shared instruction-word table so
    identity survives the round trip; ``None`` sequence numbers and
    predicted targets stay JSON ``null``.
    """
    table = trace._instr_table
    index = {id(instr): code for code, instr in enumerate(table)}
    retired = []
    for seq, pc, instr, cycle in trace._retire_rows:
        code = index.get(id(instr))
        if code is None:
            code = len(table)
            table.append(instr)
            index[id(instr)] = code
        retired.append([seq, pc, code, cycle])
    return {
        "instr_words": [instr.encode() for instr in table],
        "stalls": [[cycle, stage, cause.value, seq]
                   for cycle, stage, cause, seq in trace._stall_rows],
        "cache": [[cycle, address, int(is_store), int(hit), seq]
                  for cycle, address, is_store, hit, seq
                  in trace._cache_rows],
        "branch": [[cycle, pc, int(taken), target, int(predicted_taken),
                    predicted_target, int(mispredicted), seq]
                   for (cycle, pc, taken, target, predicted_taken,
                        predicted_target, mispredicted, seq)
                   in trace._branch_rows],
        "flushes": [[cycle, flushed, redirect_pc]
                    for cycle, flushed, redirect_pc in trace._flush_rows],
        "retired": retired,
    }


def encode_trace(trace) -> bytes:
    """Encode a columnar :class:`ActivityTrace` to ``repro-trace/1`` bytes."""
    cycles = trace.num_cycles
    values = trace._values_all()
    assert all(width <= 32 for _, width in
               sum(map(list, map(STAGE_REGISTERS.get, STAGES)), []))
    sections: List[bytes] = [
        # repro: allow[N203] every latch is at most 32 bits wide (the
        # schema is asserted above), so the <u4 narrowing is lossless.
        np.ascontiguousarray(values).astype("<u4").tobytes()]
    manifest: List[List[Any]] = [
        ["values", "<u4", [cycles, TOTAL_REGISTERS]]]
    for column, dtype in _CODE_COLUMNS:
        for stage in STAGES:
            array = trace._code_column(column, stage)
            sections.append(np.ascontiguousarray(array).astype(
                dtype).tobytes())
            manifest.append([f"{column}.{stage}", dtype, [cycles]])
    events = json.dumps(_events_document(trace), sort_keys=True,
                        separators=(",", ":")).encode()
    body = b"".join(sections) + struct.pack("<I", len(events)) + events
    meta = json.dumps({
        "format": FORMAT_NAME,
        "cycles": cycles,
        "registers": _SCHEMA,
        "sections": manifest,
        "body_bytes": len(body),
    }, sort_keys=True, separators=(",", ":")).encode()
    get_metrics().increment("trace.codec.encodes")
    return MAGIC + struct.pack("<I", len(meta)) + meta + \
        zlib.compress(body, _COMPRESSION_LEVEL)


def _parse_meta(payload: bytes) -> Dict[str, Any]:
    """Validate magic + header and return the parsed meta document."""
    if not is_encoded_trace(payload):
        raise TraceCodecError("not a repro-trace stream (bad magic)")
    offset = len(MAGIC)
    if len(payload) < offset + 4:
        raise TraceCodecError("truncated header length")
    (meta_length,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    if len(payload) < offset + meta_length:
        raise TraceCodecError("truncated meta document")
    try:
        meta = json.loads(payload[offset:offset + meta_length])
    except ValueError as error:
        raise TraceCodecError(f"corrupt meta document: {error}") from error
    if not isinstance(meta, dict) or meta.get("format") != FORMAT_NAME:
        raise TraceCodecError("unknown trace format")
    if meta.get("registers") != _SCHEMA:
        raise TraceCodecError("register schema mismatch")
    meta["_body_offset"] = offset + meta_length
    return meta


def decode_trace(payload: bytes):
    """Decode ``repro-trace/1`` bytes back into a columnar trace.

    Raises :class:`TraceCodecError` for bad magic, a foreign format or
    schema, or any truncation/corruption of the compressed body.
    """
    from .trace import ActivityTrace

    meta = _parse_meta(payload)
    cycles = meta.get("cycles")
    if not isinstance(cycles, int) or cycles < 0:
        raise TraceCodecError("corrupt cycle count")
    # the section manifest of a version-1 stream is fully determined by
    # the cycle count; anything else is header tampering, not a trace
    expected = [["values", "<u4", [cycles, TOTAL_REGISTERS]]] + \
        [[f"{column}.{stage}", dtype, [cycles]]
         for column, dtype in _CODE_COLUMNS for stage in STAGES]
    if meta.get("sections") != expected:
        raise TraceCodecError("corrupt section manifest")
    if not isinstance(meta.get("body_bytes"), int):
        raise TraceCodecError("corrupt body length")
    try:
        body = zlib.decompress(payload[meta["_body_offset"]:])
    except zlib.error as error:
        raise TraceCodecError(f"corrupt body: {error}") from error
    if len(body) != meta["body_bytes"]:
        raise TraceCodecError("body length mismatch")
    arrays: Dict[str, np.ndarray] = {}
    offset = 0
    for name, dtype, shape in expected:
        dt = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64))
        nbytes = count * dt.itemsize
        if offset + nbytes > len(body):
            raise TraceCodecError(f"truncated section {name!r}")
        arrays[name] = np.frombuffer(
            body, dtype=dt, count=count, offset=offset).reshape(shape)
        offset += nbytes
    if offset + 4 > len(body):
        raise TraceCodecError("truncated events length")
    (events_length,) = struct.unpack_from("<I", body, offset)
    if offset + 4 + events_length != len(body):
        raise TraceCodecError("events length mismatch")
    try:
        events = json.loads(body[offset + 4:])
    except ValueError as error:
        raise TraceCodecError(f"corrupt events: {error}") from error

    # one decode per table slot: duplicates stay distinct objects so a
    # re-encode reproduces the identical table (byte-stable round trip)
    table = [Instruction.decode(word) for word in events["instr_words"]]
    trace = ActivityTrace._from_columns(
        cycles=cycles, values=arrays["values"],
        codes={column: {stage: arrays[f"{column}.{stage}"]
                        for stage in STAGES}
               for column, _ in _CODE_COLUMNS},
        instr_table=table)
    trace._extend_events(
        [(cycle, stage, StallCause(cause), seq)
         for cycle, stage, cause, seq in events["stalls"]],
        [(cycle, address, bool(store), bool(hit), seq)
         for cycle, address, store, hit, seq in events["cache"]],
        [(cycle, pc, bool(taken), target, bool(ptaken), ptarget, bool(mis),
          seq)
         for cycle, pc, taken, target, ptaken, ptarget, mis, seq
         in events["branch"]],
        [(cycle, flushed, redirect)
         for cycle, flushed, redirect in events["flushes"]],
        [(seq, pc, table[code], cycle)
         for seq, pc, code, cycle in events["retired"]])
    get_metrics().increment("trace.codec.decodes")
    return trace

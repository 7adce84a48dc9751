"""Crash-safe checkpoint journal for supervised campaigns.

A campaign that runs for hours must survive being killed at any byte:
:class:`CheckpointJournal` is an append-only JSONL file where every
completed item lands as one self-checksummed record, flushed and
``fsync``'d before the campaign moves on.  Because each record is a
single ``write()`` of one line, the only possible crash artifact is a
*torn trailing line*, which the loader detects and truncates; anything
else that fails to parse is real corruption and raises
:class:`~repro.robustness.errors.CheckpointError`.

File layout::

    {"schema": "repro-checkpoint/1", "meta": {...campaign config...}}
    {"key": "<sha-256>", "index": 0, "sha256": "...", "payload": "<b64>"}
    {"key": "<sha-256>", "index": 1, "sha256": "...", "payload": "<b64>"}

Keys are content hashes of the campaign item (campaigns reuse
:func:`repro.core.trace_cache.trace_key`; ad-hoc item shapes use
:func:`content_key`), so a resumed run only skips an item when the
program bytes, configuration, seed, and position all match — and the
header ``meta`` must equal the resuming campaign's, so a journal can
never silently feed results into a differently-configured run.
Payloads are pickled Python values (numpy arrays round-trip
bit-exactly), which is what makes resumed campaigns bit-identical to
uninterrupted ones.

This module deliberately imports nothing from the simulation layers, so
it sits at the bottom of the dependency graph next to
:mod:`repro.robustness.errors`.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import signal as _signal
from contextlib import contextmanager, suppress
from typing import Any, Dict, Iterator, List, Optional

from .errors import CheckpointError

__all__ = ["JOURNAL_SCHEMA", "CheckpointJournal", "content_key",
           "journal_summary", "open_journal"]

JOURNAL_SCHEMA = "repro-checkpoint/1"
"""Schema tag stamped into every journal's header record."""


def content_key(*parts: object) -> str:
    """SHA-256 digest over a tuple of hashable-by-repr parts.

    The generic checkpoint key for campaign items that are not
    :class:`~repro.isa.program.Program` objects (TVLA input vectors,
    SAVAT instruction pairs): each part is folded in as its ``repr``
    (bytes pass through raw), separated so ``("ab", "c")`` and
    ``("a", "bc")`` cannot collide.
    """
    hasher = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else repr(part).encode()
        hasher.update(len(data).to_bytes(8, "little"))
        hasher.update(data)
    return hasher.hexdigest()


def journal_summary(path: str) -> Dict[str, Any]:
    """Lightweight digest of a journal file for run reports.

    Reads the header and counts records *without unpickling payloads*
    (a report must never execute pickle from a journal it is merely
    describing).  Record lines only need to parse as JSON and carry the
    record keys; checksums are not re-verified — resuming is the
    integrity gate, reporting is not.  A torn trailing line is counted
    separately, matching the loader's truncation policy.  Raises
    :class:`~repro.robustness.errors.CheckpointError` for a missing
    file, missing header, or wrong schema.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read journal ({exc})")
    lines = raw.split(b"\n")
    body, tail = lines[:-1], lines[-1]
    if not body:
        raise CheckpointError(f"{path}: journal has no header record")
    try:
        header = json.loads(body[0])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}:1: corrupt journal header ({exc})")
    if header.get("schema") != JOURNAL_SCHEMA:
        raise CheckpointError(
            f"{path}: unsupported journal schema "
            f"{header.get('schema')!r} (expected {JOURNAL_SCHEMA!r})")
    records = 0
    malformed = 0
    for line in body[1:]:
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            malformed += 1
            continue
        if isinstance(record, dict) and "key" in record:
            records += 1
        else:
            malformed += 1
    return {
        "path": str(path),
        "schema": JOURNAL_SCHEMA,
        "meta": dict(header.get("meta", {})),
        "records": records,
        "malformed": malformed,
        "torn_tail": bool(tail),
    }


class CheckpointJournal:
    """Append-only, fsync'd JSONL journal of completed campaign items.

    ``resume=True`` replays an existing journal (validating schema,
    metadata, and per-record checksums; truncating a torn trailing
    line) and appends to it; ``resume=False`` starts fresh, truncating
    whatever was there.  Use :meth:`guarded` around the campaign loop
    to also flush on SIGINT/SIGTERM before the default reaction runs.
    """

    def __init__(self, path: str, meta: Optional[Dict[str, Any]] = None,
                 resume: bool = True):
        self.path = path
        self.meta: Dict[str, Any] = dict(meta or {})
        self._records: Dict[str, bytes] = {}
        self._resumed = 0
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        if resume and os.path.exists(path):
            self._load()
            self._handle = open(path, "ab")
        else:
            self._handle = open(path, "wb")
            self._append({"schema": JOURNAL_SCHEMA, "meta": self.meta})

    # ------------------------------------------------------------------
    # loading / recovery
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Replay the journal; truncate a torn trailing write."""
        with open(self.path, "rb") as handle:
            raw = handle.read()
        lines = raw.split(b"\n")
        body, tail = lines[:-1], lines[-1]
        documents: List[dict] = []
        for number, line in enumerate(body, start=1):
            try:
                documents.append(json.loads(line))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise CheckpointError(
                    f"{self.path}:{number}: corrupt journal record "
                    f"({exc}); only the trailing line may be torn — "
                    f"delete the journal to restart from scratch")
        if not documents:
            raise CheckpointError(
                f"{self.path}: journal has no header record")
        header = documents[0]
        if header.get("schema") != JOURNAL_SCHEMA:
            raise CheckpointError(
                f"{self.path}: unsupported journal schema "
                f"{header.get('schema')!r} (expected {JOURNAL_SCHEMA!r})")
        stored_meta = header.get("meta", {})
        if self.meta and stored_meta != self.meta:
            raise CheckpointError(
                f"{self.path}: journal metadata does not match this "
                f"campaign (journal: {stored_meta!r}, campaign: "
                f"{self.meta!r}); resuming would mix configurations — "
                f"delete the journal or fix the flags")
        self.meta = dict(stored_meta)
        for number, record in enumerate(documents[1:], start=2):
            try:
                key = record["key"]
                payload = base64.b64decode(record["payload"])
                digest = record["sha256"]
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"{self.path}:{number}: malformed journal record "
                    f"({exc})")
            if hashlib.sha256(payload).hexdigest() != digest:
                raise CheckpointError(
                    f"{self.path}:{number}: checksum mismatch for key "
                    f"{key[:16]}…; the journal is corrupt")
            self._records[key] = payload
        self._resumed = len(self._records)
        if tail:
            # a torn trailing write is the expected artifact of a crash
            # mid-append; drop it so the next append starts a clean line
            os.truncate(self.path, len(raw) - len(tail))

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def _append(self, document: dict) -> None:
        """One record = one ``write()`` of one line, flushed + fsync'd."""
        line = (json.dumps(document, sort_keys=True) + "\n").encode()
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, key: str, index: int, value: Any) -> None:
        """Journal one completed item's result under ``key``."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._append({
            "key": key,
            "index": int(index),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": base64.b64encode(payload).decode("ascii"),
        })
        self._records[key] = payload

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def lookup(self, key: str) -> Any:
        """The stored result for ``key`` (bit-exact round trip).

        A record that passed its checksum but no longer unpickles was
        written by another version of repro; that raises
        :class:`~repro.robustness.errors.CheckpointError`, whatever
        ``pickle.loads`` raised.
        """
        payload = self._records[key]
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise CheckpointError(
                f"{self.path}: record for key {key[:16]}… does not "
                f"unpickle ({type(exc).__name__}: {exc}); it was written "
                f"by another version of repro — delete the journal to "
                f"restart from scratch") from exc

    def keys(self) -> List[str]:
        """All journaled keys, in insertion (= completion) order."""
        return list(self._records)

    @property
    def resumed_records(self) -> int:
        """How many records were replayed from disk at open time."""
        return self._resumed

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Best-effort flush + fsync (safe on a closed journal)."""
        with suppress(OSError, ValueError):
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush and close the underlying file."""
        self.flush()
        with suppress(OSError, ValueError):
            self._handle.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @contextmanager
    def guarded(self) -> Iterator["CheckpointJournal"]:
        """Flush the journal on SIGINT/SIGTERM, then react as before.

        Installs handlers for the supervised campaign's run window and
        restores the previous ones on exit.  Outside the main thread
        (where ``signal.signal`` is unavailable) this degrades to a
        plain pass-through — every append is fsync'd anyway, so the
        guard only covers the file-object buffer.
        """
        previous: Dict[int, object] = {}

        def _flush_then_react(signum: int, frame: object) -> None:
            self.flush()
            handler = previous.get(signum)
            if callable(handler):
                handler(signum, frame)
            elif signum == _signal.SIGINT:
                raise KeyboardInterrupt
            else:
                raise SystemExit(128 + signum)

        try:
            for signum in (_signal.SIGINT, _signal.SIGTERM):
                try:
                    previous[signum] = _signal.signal(signum,
                                                      _flush_then_react)
                except ValueError:
                    # not the main thread: signals cannot be hooked here
                    break
            yield self
        finally:
            for signum, handler in previous.items():
                _signal.signal(signum, handler)


@contextmanager
def open_journal(path: Optional[str], meta: Dict[str, Any],
                 resume: bool = False
                 ) -> Iterator[Optional[CheckpointJournal]]:
    """A campaign's checkpoint journal for its run window, if any.

    Yields ``None`` without a ``path``; otherwise opens the journal
    (resuming it when ``resume`` is set), flushes it on SIGINT/SIGTERM
    while the campaign runs (:meth:`CheckpointJournal.guarded`) and
    closes it on exit.
    """
    if path is None:
        yield None
        return
    with CheckpointJournal(path, meta=meta, resume=resume) as journal:
        with journal.guarded():
            yield journal

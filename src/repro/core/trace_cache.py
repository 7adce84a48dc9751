"""Content-addressed cache for pipeline simulation artifacts.

The trainers, microbench probes, and campaign drivers repeatedly
re-simulate *identical* ``(program, CoreConfig)`` pairs: every probe is
captured several times per fit, calibration sweeps rerun the same probe
corpus fit after fit, and campaigns replay programs across repetitions.
The pipeline is pure — the same program under the same configuration
always yields the same :class:`~repro.uarch.trace.ActivityTrace` — so
those re-simulations are wasted work.

This module keys each artifact by a SHA-256 digest of everything the
result depends on: the full ``repr`` of the (frozen, deterministic)
core configuration, the core kind, the cycle limit, the program's entry
point, encoded machine code, and initialized data words — plus a caller
salt for derived values (e.g. ideal-capture measurements, which also
depend on the emitter).  The program *name* is deliberately excluded:
two identically-encoded programs share an entry.  Invalidation is
therefore automatic — touch any input and the key changes.  Every key
also hashes :data:`TRACE_KEY_VERSION`, which changes whenever the stored
artifacts change shape, so entries written by older code simply miss.

Storage is a bounded in-memory LRU with an optional on-disk layer (one
file per digest, written atomically).  Activity traces are written as
compact ``repro-trace/1`` codec bytes; every other artifact kind is
pickled.  Reads discriminate by the codec magic, and a corrupt or
truncated file of either flavour is just a miss.  Every lookup feeds
hit/miss counters into the metrics registry
(:mod:`repro.observability`) so ``--profile`` and run manifests show
cache effectiveness per category.

The in-memory layer also keeps one entry per *code family* — the key
inputs without the data image, see :func:`code_family_key` — for
runners that reuse work across programs that differ only in their data
(the simulator's schedule replay, :mod:`repro.uarch.replay`).  Family
entries never reach the disk layer and :meth:`TraceCache.clear` drops
them with the traces.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ..isa.program import Program
from ..observability.metrics import get_metrics
from ..uarch.config import CoreConfig
from ..uarch.trace import ActivityTrace
from ..uarch.tracecodec import (TraceCodecError, decode_trace, encode_trace,
                                is_encoded_trace)


TRACE_KEY_VERSION = "repro-trace-key/2"
"""Version tag hashed into every :func:`trace_key`.

Version 2 dropped the loader for pre-columnar trace pickles; bumping the
tag keeps a disk cache written before that change from serving entries
this code can no longer rebuild.
"""


@lru_cache(maxsize=128)
def _config_bytes(config: CoreConfig) -> bytes:
    """Memoized ``repr`` bytes of a (frozen, hashable) core config.

    Building the dataclass repr walks every field; the same few config
    objects are hashed thousands of times per fit, so this is one of
    the two hot spots of :func:`trace_key`.
    """
    return repr(config).encode()


def _program_digests(program: Program) -> Tuple[bytes, bytes]:
    """``(code digest, code + data digest)`` of ``program``'s sections.

    Both hash the entry point and the machine code; the second goes on
    over the data image.  They are memoized on the program when it
    allows attributes (slotted or frozen programs simply re-hash).
    """
    digests = getattr(program, "_trace_digests", None)
    if digests is not None:
        return digests
    sections = hashlib.sha256()
    sections.update(repr(program.entry).encode())
    machine_code = program.machine_code
    code = np.fromiter(machine_code, dtype=np.int64,
                       count=len(machine_code))
    # repro: allow[N203] values are masked to 32 bits on the line
    # above, so the little-endian u4 cast is lossless by design.
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
    digests = (code_digest, sections.digest())
    with contextlib.suppress(AttributeError):
        program._trace_digests = digests
    return digests


def _digest(sections: bytes, config: CoreConfig, core_kind: str,
            max_cycles: Optional[int], salt: str) -> str:
    """Hex key over the run settings and a program-section digest."""
    hasher = hashlib.sha256(TRACE_KEY_VERSION.encode())
    hasher.update(_config_bytes(config))
    hasher.update(core_kind.encode())
    hasher.update(repr(max_cycles).encode())
    hasher.update(salt.encode())
    hasher.update(sections)
    return hasher.hexdigest()


def trace_key(program: Program, config: CoreConfig,
              core_kind: str = "in-order",
              max_cycles: Optional[int] = None, salt: str = "") -> str:
    """Content digest for ``program`` simulated under ``config``.

    Two calls return the same key exactly when the simulation inputs are
    byte-for-byte the same: machine code, initialized data, entry point,
    core configuration (``CoreConfig`` is a frozen dataclass whose
    ``repr`` is deterministic and exhaustive), core kind, and cycle
    limit.  ``salt`` namespaces derived artifacts that add inputs of
    their own (e.g. the emitter digest for ideal captures).  The
    program sections are serialized through bulk numpy casts — the
    byte stream (4-byte little-endian code words, then interleaved
    8-byte-address/1-byte-value pairs in address order) is exactly
    what a per-word loop would produce, at a fraction of the cost —
    and the resulting section digest is memoized on the program
    object, since probe programs are themselves memoized and keyed
    over and over (programs must not be mutated after first use,
    the same contract :mod:`repro.core.microbench` states).
    """
    return _digest(_program_digests(program)[1], config, core_kind,
                   max_cycles, salt)


def code_family_key(program: Program, config: CoreConfig,
                    core_kind: str = "in-order",
                    max_cycles: Optional[int] = None,
                    salt: str = "") -> str:
    """:func:`trace_key` without the data image.

    Programs with the same machine code and entry point, run under the
    same settings, share this key whatever their initialized data.
    """
    return _digest(_program_digests(program)[0], config, core_kind,
                   max_cycles, salt)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`TraceCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served (hits + misses)."""
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (for reports and tests)."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "disk_hits": self.disk_hits}


@dataclass
class TraceCache:
    """Bounded LRU keyed by content digest, with an optional disk layer.

    ``capacity`` bounds the in-memory layer (least recently used entry
    evicted first).  When ``directory`` is set, every stored value is
    also written to ``<directory>/<digest>.pkl`` with an atomic rename
    — activity traces as raw ``repro-trace/1`` codec bytes, everything
    else pickled — and in-memory misses fall through to disk; a corrupt
    or unreadable file of either format is treated as a miss.  ``enabled=False`` turns every
    lookup into a miss without touching storage, which is how the
    ``--no-trace-cache`` flag and :func:`trace_cache_disabled` work.

    Code-family entries (:meth:`family`, :meth:`remember_family`) live
    in memory only, in their own LRU of the same ``capacity``.
    """

    capacity: int = 256
    directory: Optional[str] = None
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: "OrderedDict[str, Any]" = field(default_factory=OrderedDict)
    _families: "OrderedDict[str, Any]" = field(default_factory=OrderedDict)

    def lookup(self, key: str) -> Optional[Any]:
        """Return the cached value for ``key`` or ``None`` on a miss."""
        if not self.enabled:
            return None
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key]
        if self.directory is not None:
            value = self._read_disk(key)
            if value is not None:
                self.stats.disk_hits += 1
                self._remember(key, value)
                return value
        return None

    def store(self, key: str, value: Any) -> None:
        """Insert ``value`` under ``key`` (memory, then disk layer)."""
        if not self.enabled:
            return
        self._remember(key, value)
        if self.directory is not None:
            self._write_disk(key, value)

    def get_or_run(self, program: Program, config: CoreConfig,
                   runner: Callable[[], Any], *,
                   core_kind: str = "in-order",
                   max_cycles: Optional[int] = None, salt: str = "",
                   category: str = "trace") -> Any:
        """Cached value for the keyed inputs, running ``runner`` on miss.

        ``category`` labels the registry counters
        (``trace_cache.<category>.hits`` / ``.misses``) so distinct
        artifact kinds — raw traces, simulator traces, ideal captures —
        report separately under ``--profile`` and in run manifests.
        """
        metrics = get_metrics()
        key = trace_key(program, config, core_kind=core_kind,
                        max_cycles=max_cycles, salt=salt)
        disk_hits_before = self.stats.disk_hits
        value = self.lookup(key)
        if value is not None:
            self.stats.hits += 1
            metrics.increment(f"trace_cache.{category}.hits")
            if self.stats.disk_hits != disk_hits_before:
                metrics.increment(f"trace_cache.{category}.disk_hits")
            return value
        self.stats.misses += 1
        metrics.increment(f"trace_cache.{category}.misses")
        value = runner()
        self.store(key, value)
        return value

    def family(self, key: str) -> Optional[Any]:
        """The entry stored for code family ``key`` (see
        :func:`code_family_key`), or ``None``; always ``None`` while
        the cache is disabled."""
        if not self.enabled or key not in self._families:
            return None
        self._families.move_to_end(key)
        return self._families[key]

    def remember_family(self, key: str, value: Any) -> None:
        """Store ``value`` for code family ``key`` (in memory only; a
        disabled cache stores nothing)."""
        if self.enabled:
            _lru_insert(self._families, key, value, self.capacity)

    def clear(self) -> None:
        """Drop every in-memory entry, code families included (the disk
        layer is untouched)."""
        self._entries.clear()
        self._families.clear()

    def _remember(self, key: str, value: Any) -> None:
        """LRU insert into the in-memory layer, evicting if over capacity."""
        self.stats.evictions += _lru_insert(self._entries, key, value,
                                            self.capacity)

    def _path(self, key: str) -> str:
        """On-disk path for ``key`` inside the cache directory."""
        return os.path.join(self.directory, f"{key}.pkl")

    def _read_disk(self, key: str) -> Optional[Any]:
        """Load a disk entry, returning ``None`` for any failure.

        The first bytes discriminate the format: the ``repro-trace/1``
        magic means raw codec bytes (the fast path for traces), anything
        else is a pickle.
        """
        try:
            with open(self._path(key), "rb") as handle:
                payload = handle.read()
            if is_encoded_trace(payload):
                return decode_trace(payload)
            return pickle.loads(payload)
        except (OSError, TraceCodecError, pickle.UnpicklingError,
                EOFError, AttributeError, ImportError):
            return None

    def _write_disk(self, key: str, value: Any) -> None:
        """Atomically write an entry (tmp file + rename); best-effort —
        a full or read-only cache directory must never fail the run.

        Bare activity traces are serialized as ``repro-trace/1`` codec
        bytes (several times smaller and faster to load than their
        pickle); other artifact kinds — measurements, tuples, arrays —
        go through pickle, inside which any embedded trace still
        auto-compacts via :meth:`ActivityTrace.__reduce__`.
        """
        with contextlib.suppress(OSError):
            os.makedirs(self.directory, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                mode="wb", dir=self.directory, suffix=".tmp", delete=False)
            try:
                with handle:
                    if isinstance(value, ActivityTrace):
                        handle.write(encode_trace(value))
                    else:
                        pickle.dump(value, handle,
                                    protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(handle.name, self._path(key))
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(handle.name)
                raise


def _lru_insert(entries: "OrderedDict[str, Any]", key: str, value: Any,
                capacity: int) -> int:
    """Insert ``key`` as most recent; returns how many entries the
    ``capacity`` bound evicted."""
    entries[key] = value
    entries.move_to_end(key)
    evicted = 0
    while len(entries) > capacity:
        entries.popitem(last=False)
        evicted += 1
    return evicted


_GLOBAL_CACHE = TraceCache(
    directory=os.environ.get("REPRO_TRACE_CACHE_DIR") or None,
    enabled=os.environ.get("REPRO_TRACE_CACHE", "1") != "0")


def get_trace_cache() -> TraceCache:
    """The process-wide trace cache used by device/simulator/trainer."""
    return _GLOBAL_CACHE


def configure_trace_cache(capacity: Optional[int] = None,
                          directory: Optional[str] = None,
                          enabled: Optional[bool] = None,
                          clear: bool = False) -> TraceCache:
    """Adjust the global cache in place; ``None`` keeps a setting.

    ``directory=""`` removes the disk layer, any other string enables
    it.  ``clear=True`` additionally drops the in-memory entries (after
    applying the new settings).  Returns the global cache.
    """
    cache = get_trace_cache()
    if capacity is not None:
        cache.capacity = capacity
    if directory is not None:
        cache.directory = directory or None
    if enabled is not None:
        cache.enabled = enabled
    if clear:
        cache.clear()
    return cache


@contextlib.contextmanager
def trace_cache_disabled() -> Iterator[None]:
    """Context manager that bypasses the global cache inside its body.

    Used by benchmarks to time the uncached path, and by tests asserting
    cached and uncached runs produce bit-identical artifacts.
    """
    cache = get_trace_cache()
    previous = cache.enabled
    cache.enabled = False
    try:
        yield
    finally:
        cache.enabled = previous

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

The unsalted key holds the scalar core's trace, and two callers share
it: :meth:`~repro.hardware.device.HardwareDevice.run_trace` and, with
misprediction modeling on, :meth:`~repro.core.simulator.EMSim.run_trace`,
which looks it up before running its core and stores every scalar run
there (never a replayed trace).  So a program that is both simulated
and captured runs the core once, whichever side comes first.

Storage is a bounded in-memory LRU with an optional on-disk layer (one
file per digest, written atomically).  Every entry, whatever its kind,
is pickled and zlib-compressed at level 1; an activity trace pickles its
own columns (:meth:`~repro.uarch.trace.ActivityTrace.__reduce__`).  A
file that does not decompress and unpickle is just a miss.  Every lookup
feeds hit/miss counters into the metrics registry
(:mod:`repro.observability`) so ``--profile`` and run manifests show
cache effectiveness per category.

The in-memory layer also keeps one entry per *code family* — the key
inputs without the data image, see :func:`code_family_key` — for
runners that reuse work across programs that differ only in their data
(the simulator's schedule replay, :mod:`repro.uarch.replay`).  Family
entries never reach the disk layer and :meth:`TraceCache.clear` drops
them with the traces.

Programs bound from one template by
:meth:`~repro.isa.program.Program.with_data` (every AES plaintext of a
TVLA campaign) share their code, so their keys hash the code section
the template memoizes once and then only each copy's data image; the
keys are the same bytes either way.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import tempfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ..isa.program import Program, bound_template
from ..observability.metrics import get_metrics
from ..uarch.config import CoreConfig


TRACE_KEY_VERSION = "repro-trace-key/2"
"""Version tag hashed into every :func:`trace_key`.

Version 2 dropped the loader for pre-columnar trace pickles; bumping the
tag keeps a disk cache written before that change from serving entries
this code can no longer rebuild.
"""


_DISK_COMPRESSION_LEVEL = 1
"""zlib level of every disk-layer entry: the fastest, because a run
compresses an entry on each of its own trace-cache misses."""


@lru_cache(maxsize=128)
def _config_bytes(config: CoreConfig) -> bytes:
    """Memoized ``repr`` bytes of a (frozen, hashable) core config.

    Building the dataclass repr walks every field; the same few config
    objects are hashed thousands of times per fit, so this is one of
    the two hot spots of :func:`trace_key`.
    """
    return repr(config).encode()


def _code_section(program: Program) -> bytes:
    """The entry point's ``repr``, then the 32-bit little-endian words of
    ``program``'s machine code: the bytes every key hashes first."""
    machine_code = program.machine_code
    code = np.fromiter(machine_code, dtype=np.int64,
                       count=len(machine_code))
    # repro: allow[N203] values are masked to 32 bits on this line,
    # so the little-endian u4 cast is lossless by design.
    words = (code & 0xFFFFFFFF).astype("<u4")
    return repr(program.entry).encode() + words.tobytes()


def _code_digests(program: Program) -> Tuple[bytes, bytes]:
    """``(code section, its digest)`` of ``program``.

    A copy bound from a template (:func:`bound_template`) whose entry
    and instruction list still equal the template's takes the
    template's, computed once and memoized on the template as bytes (so
    a bound copy, which references its template, stays picklable).  The
    list comparison is cheap: a bound copy holds the template's own
    :class:`Instruction` objects.
    """
    template = bound_template(program)
    if template is None or program.entry != template.entry or \
            program.instructions != template.instructions:
        section = _code_section(program)
        return section, hashlib.sha256(section).digest()
    memo = getattr(template, "_code_digests", None)
    if memo is None:
        section = _code_section(template)
        memo = (section, hashlib.sha256(section).digest())
        with contextlib.suppress(AttributeError):
            template._code_digests = memo
    return memo


def _program_digests(program: Program) -> Tuple[bytes, bytes]:
    """``(code digest, code + data digest)`` of ``program``'s sections.

    Both hash the code section (:func:`_code_section`); the second goes
    on over the data image.  They are memoized on the program when it
    allows attributes (slotted or frozen programs simply re-hash).
    """
    digests = getattr(program, "_trace_digests", None)
    if digests is not None:
        return digests
    section, code_digest = _code_digests(program)
    sections = hashlib.sha256(section)
    addresses = sorted(program.data)
    data = np.empty(len(addresses),
                    dtype=[("address", "<u8"), ("value", "u1")])
    data["address"] = addresses
    try:
        # repro: allow[N203] bytes() takes only values in 0..255, so
        # the uint8 view is lossless.
        data["value"] = np.frombuffer(
            bytes(map(program.data.__getitem__, addresses)), dtype=np.uint8)
    except (TypeError, ValueError):
        # values bytes() declines (3.0, or a byte edited out of range
        # after construction) key as their integer's low byte
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
    byte stream (the entry's ``repr``, 4-byte little-endian code words,
    then interleaved 8-byte-address/1-byte-value pairs in address
    order) is exactly what a per-word loop would produce, at a fraction
    of the cost — and the resulting section digest is memoized on the
    program object, since probe programs are themselves memoized and
    keyed over and over (programs must not be mutated after first use,
    the same contract :mod:`repro.core.microbench` states).  A copy
    bound from a template (:meth:`~repro.isa.program.Program.with_data`)
    takes the code section its template memoized, unless its entry or
    instruction list no longer equals the template's, and serializes
    only its data image.
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
    also written to ``<directory>/<digest>.pkl`` with an atomic rename,
    as a pickle compressed at :data:`_DISK_COMPRESSION_LEVEL`, and
    in-memory misses fall through to disk; a corrupt or unreadable file
    is treated as a miss.  ``enabled=False`` turns every
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

        A corrupt payload can raise almost any exception from
        ``zlib.decompress`` or ``pickle.loads`` (``UnicodeDecodeError``,
        ``OverflowError``, :class:`~repro.robustness.errors.TraceCodecError`,
        ...), so every ``Exception`` from reading or decoding is a miss.
        """
        try:
            with open(self._path(key), "rb") as handle:
                return pickle.loads(zlib.decompress(handle.read()))
        except Exception:
            return None

    def _write_disk(self, key: str, value: Any) -> None:
        """Atomically write an entry (tmp file + rename); best-effort —
        a full or read-only cache directory must never fail the run."""
        payload = zlib.compress(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
            _DISK_COMPRESSION_LEVEL)
        with contextlib.suppress(OSError):
            os.makedirs(self.directory, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                mode="wb", dir=self.directory, suffix=".tmp", delete=False)
            try:
                with handle:
                    handle.write(payload)
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

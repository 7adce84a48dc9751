"""Tests for the content-addressed trace cache (repro.core.trace_cache).

The load-bearing contract: cached and uncached runs produce
**bit-identical** artifacts — for raw activity traces, for ideal-capture
measurements, and under fault injection (faults corrupt only the scope
path, never the trace, so they must not defeat or poison the cache).
"""

import pickle

import numpy as np
import pytest

from repro.core.microbench import REPRESENTATIVES, isolation_probe, \
    pair_probe
from repro.core.trace_cache import (TraceCache, code_family_key,
                                    configure_trace_cache, get_trace_cache,
                                    trace_cache_disabled, trace_key)
from repro.hardware import HardwareDevice
from repro.leakage import aes_program
from repro.observability import disable_metrics, enable_metrics
from repro.robustness import FaultPlan
from repro.uarch.config import CoreConfig

ALU = REPRESENTATIVES["alu"]
LOAD = REPRESENTATIVES["load"]


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts from an empty, enabled in-memory global cache."""
    configure_trace_cache(directory="", enabled=True, clear=True)
    yield
    configure_trace_cache(directory="", enabled=True, clear=True)


# ---------------------------------------------------------------------------
# key discrimination
# ---------------------------------------------------------------------------
def test_trace_key_discriminates_every_input():
    config = CoreConfig()
    base = trace_key(isolation_probe(ALU), config)
    assert trace_key(isolation_probe(ALU), config) == base
    assert trace_key(isolation_probe(LOAD), config) != base
    assert trace_key(isolation_probe(ALU), config,
                     core_kind="ooo") != base
    assert trace_key(isolation_probe(ALU), config,
                     max_cycles=64) != base
    assert trace_key(isolation_probe(ALU), config, salt="x") != base


def test_trace_key_ignores_program_name():
    config = CoreConfig()
    first = isolation_probe(ALU)
    renamed = type(first)(instructions=first.instructions,
                          data=dict(first.data),
                          symbols=dict(first.symbols),
                          entry=first.entry, name="something_else")
    assert trace_key(renamed, config) == trace_key(first, config)


def test_trace_key_sees_data_and_config():
    config = CoreConfig()
    first = isolation_probe(ALU)
    patched = type(first)(instructions=first.instructions,
                          data={**first.data,
                                max(first.data, default=0) + 1: 7},
                          symbols=dict(first.symbols),
                          entry=first.entry, name=first.name)
    assert trace_key(patched, config) != trace_key(first, config)
    other = CoreConfig(mul_latency=config.mul_latency + 1)
    assert trace_key(first, other) != trace_key(first, config)
    # the code family leaves the data image out, and only that
    family = code_family_key(first, config)
    assert code_family_key(patched, config) == family
    assert code_family_key(first, other) != family
    assert code_family_key(isolation_probe(LOAD), config) != family
    assert code_family_key(first, config, max_cycles=64) != family


def test_trace_key_is_pinned():
    # a trace_key change orphans every disk-cache entry; bump
    # TRACE_KEY_VERSION deliberately instead
    program = aes_program(list(range(16)), list(range(16)), rounds=1)
    assert trace_key(program, CoreConfig()) == (
        "196ec47e08b77d25e53431eee147aa35a511856303d1229c754c5761eb2b1375")


# ---------------------------------------------------------------------------
# bit-identity of cached artifacts
# ---------------------------------------------------------------------------
def test_cached_trace_is_bit_identical():
    device = HardwareDevice()
    program = pair_probe(ALU, LOAD)
    first = device.run_trace(program)
    again = device.run_trace(program)
    assert again is first  # served from cache
    with trace_cache_disabled():
        fresh = device.run_trace(program)
    assert fresh is not first
    assert pickle.dumps(fresh) == pickle.dumps(first)


def test_cached_ideal_capture_survives_device_recreation():
    program = isolation_probe(ALU)
    first = HardwareDevice().capture_ideal(program)
    again = HardwareDevice().capture_ideal(program)
    assert again is first
    with trace_cache_disabled():
        fresh = HardwareDevice().capture_ideal(program)
    assert np.array_equal(fresh.signal, first.signal)


def test_fault_injection_does_not_change_traces():
    program = pair_probe(ALU, LOAD)
    clean = HardwareDevice().run_trace(program)
    configure_trace_cache(clear=True)
    faulty_device = HardwareDevice(
        fault_plan=FaultPlan.preset(0.5, seed=11))
    faulty = faulty_device.run_trace(program)
    assert pickle.dumps(faulty) == pickle.dumps(clean)
    with trace_cache_disabled():
        uncached = faulty_device.run_trace(program)
    assert pickle.dumps(uncached) == pickle.dumps(clean)


def test_alu_bug_bypasses_the_cache():
    from repro.leakage.debugging import buggy_multiplier

    program = isolation_probe(ALU)
    healthy = HardwareDevice().run_trace(program)
    buggy = HardwareDevice(alu_bug=buggy_multiplier).run_trace(program)
    assert buggy is not healthy


# ---------------------------------------------------------------------------
# storage behavior
# ---------------------------------------------------------------------------
def test_lru_eviction_is_bounded():
    cache = TraceCache(capacity=2)
    cache.store("a", 1)
    cache.store("b", 2)
    cache.store("c", 3)
    assert cache.stats.evictions == 1
    assert cache.lookup("a") is None
    assert cache.lookup("b") == 2 and cache.lookup("c") == 3
    for key in "xyz":
        cache.remember_family(key, key)
    assert cache.family("x") is None and cache.family("z") == "z"
    assert cache.lookup("b") == 2 and cache.stats.evictions == 1


def test_disk_layer_roundtrip_and_corruption(tmp_path):
    directory = str(tmp_path / "cache")
    writer = TraceCache(directory=directory)
    writer.store("deadbeef", {"payload": np.arange(4)})
    reader = TraceCache(directory=directory)
    value = reader.lookup("deadbeef")
    assert value is not None and np.array_equal(value["payload"],
                                                np.arange(4))
    assert reader.stats.disk_hits == 1
    (tmp_path / "cache" / "deadbeef.pkl").write_bytes(b"not a pickle")
    assert TraceCache(directory=directory).lookup("deadbeef") is None


def test_entries_under_unversioned_keys_miss(tmp_path, monkeypatch):
    """A disk cache written before keys carried TRACE_KEY_VERSION (e.g.
    pre-columnar trace pickles) must miss, never load."""
    import repro.core.trace_cache as trace_cache_module

    program, config = isolation_probe(ALU), CoreConfig()
    monkeypatch.setattr(trace_cache_module, "TRACE_KEY_VERSION", "")
    old_key = trace_key(program, config)
    monkeypatch.undo()
    assert old_key != trace_key(program, config)
    directory = tmp_path / "cache"
    directory.mkdir()
    (directory / f"{old_key}.pkl").write_bytes(
        pickle.dumps({"occupancy": {}, "_values": {}}))
    cache = TraceCache(directory=str(directory))
    calls = []
    trace = cache.get_or_run(program, config,
                             lambda: calls.append(1) or "fresh")
    assert trace == "fresh" and calls == [1]
    assert cache.stats.misses == 1 and cache.stats.disk_hits == 0


def test_disabled_cache_reruns_but_counts():
    cache = TraceCache(enabled=False)
    calls = []
    program, config = isolation_probe(ALU), CoreConfig()
    for _ in range(2):
        cache.get_or_run(program, config,
                         lambda: calls.append(1) or len(calls))
    assert len(calls) == 2
    assert cache.stats.misses == 2 and cache.stats.hits == 0


def test_profiler_sees_hit_and_miss_counters():
    registry = enable_metrics()
    registry.reset()
    try:
        cache = TraceCache()
        program, config = isolation_probe(ALU), CoreConfig()
        cache.get_or_run(program, config, lambda: "v", category="unit")
        cache.get_or_run(program, config, lambda: "v", category="unit")
    finally:
        disable_metrics()
    assert registry.counters["trace_cache.unit.misses"] == 1
    assert registry.counters["trace_cache.unit.hits"] == 1


def test_configure_trace_cache_controls_the_global_instance():
    cache = configure_trace_cache(capacity=3)
    assert cache is get_trace_cache() and cache.capacity == 3
    configure_trace_cache(enabled=False)
    assert get_trace_cache().enabled is False
    configure_trace_cache(enabled=True, directory="/tmp/somewhere")
    assert get_trace_cache().directory == "/tmp/somewhere"
    configure_trace_cache(directory="")
    assert get_trace_cache().directory is None

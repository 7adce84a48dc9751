"""Tests for the content-addressed trace cache (repro.core.trace_cache).

The load-bearing contract: cached and uncached runs produce
**bit-identical** artifacts — for raw activity traces, for ideal-capture
measurements, and under fault injection (faults corrupt only the scope
path, never the trace, so they must not defeat or poison the cache).
EMSim and the device share the scalar core's trace entry, so a program
that is both simulated and captured runs the core once; replayed traces
and the ablations never reach that entry.
"""

import pickle
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EMSim
from repro.core.config import EMSimConfig
from repro.core.microbench import REPRESENTATIVES, isolation_probe, \
    pair_probe
from repro.core.model import EMSimModel
from repro.core.trace_cache import (TraceCache, code_family_key,
                                    configure_trace_cache, get_trace_cache,
                                    trace_cache_disabled, trace_key)
from repro.hardware import HardwareDevice, Measurement
from repro.isa import assemble
from repro.isa.program import bound_template
from repro.leakage import SimulatorSignalSource, aes_program, savat_matrix
from repro.observability import disable_metrics, enable_metrics
from repro.robustness import FaultPlan
from repro.uarch import run_program
from repro.uarch.config import CoreConfig
from repro.workloads import fibonacci

from .oracles import assert_traces_identical, seed_trace_keys, trace_bytes

ALU = REPRESENTATIVES["alu"]
LOAD = REPRESENTATIVES["load"]


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts from an empty, enabled in-memory global cache
    and leaves it at the capacity it found."""
    capacity = get_trace_cache().capacity
    configure_trace_cache(directory="", enabled=True, clear=True)
    yield
    configure_trace_cache(capacity=capacity, directory="", enabled=True,
                          clear=True)


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


@pytest.mark.parametrize("value", [3.0, np.int64(3), np.float64(3.0)],
                         ids=["float", "int64", "float64"])
def test_data_values_key_as_their_integer_byte(value):
    # Program accepts a data value bytes() declines (3.0); it keys like 3
    config = CoreConfig()
    first = isolation_probe(LOAD)
    address = max(first.data, default=0) + 1

    def bound(byte):
        return type(first)(instructions=first.instructions,
                           data={**first.data, address: byte},
                           entry=first.entry)

    assert trace_key(bound(value), config) == trace_key(bound(3), config)
    assert trace_key(bound(value), config) == \
        seed_trace_keys(bound(value), config)[1]
    assert trace_key(bound(4), config) != trace_key(bound(3), config)


def test_trace_key_is_pinned():
    # a trace_key change orphans every disk-cache entry; bump
    # TRACE_KEY_VERSION deliberately instead
    program = aes_program(list(range(16)), list(range(16)), rounds=1)
    assert trace_key(program, CoreConfig()) == (
        "196ec47e08b77d25e53431eee147aa35a511856303d1229c754c5761eb2b1375")


SMALL = """
.data
value: .word 5, 9
.text
    la t0, value
    lw t1, 0(t0)
    addi t1, t1, 3
    sw t1, 4(t0)
    ebreak
"""


def _bound_programs(kind):
    """Programs bound from a template; the first two share its code."""
    if kind.startswith("aes"):
        rounds = int(kind[3:])
        return [aes_program(list(range(16)), [seed] * 16, rounds=rounds)
                for seed in (1, 2)]
    template = assemble(SMALL)
    first = template.with_data({template.symbols["value"]: [1, 2, 3]})
    second = template.with_data({template.symbols["value"]: [4]})
    if kind == "copy-of-copy":
        second = first.with_data({template.symbols["value"] + 4: [7]})
        assert bound_template(second) is template
    elif kind == "replaced-code":
        # rebound to other code before its first key: it hashes its own
        other = assemble(SMALL.replace("addi t1, t1, 3", "xori t1, t1, 3"))
        second.instructions = other.instructions
    return [first, second]


@pytest.mark.parametrize("kind", ["aes1", "aes10", "small",
                                  "copy-of-copy", "replaced-code"])
def test_bound_copies_hash_to_the_oracle_keys(kind):
    first, second = _bound_programs(kind)
    settings = [(CoreConfig(), {}),
                (CoreConfig(mul_latency=5),
                 {"core_kind": "ooo", "max_cycles": 64, "salt": "x"})]
    for program in (first, second, first, second):
        for config, options in settings:
            family, key = seed_trace_keys(program, config, **options)
            assert code_family_key(program, config, **options) == family
            assert trace_key(program, config, **options) == key
    same_code = code_family_key(first, CoreConfig()) == \
        code_family_key(second, CoreConfig())
    assert same_code == (kind != "replaced-code")


def test_bound_copy_pickles_after_its_template_was_keyed():
    config = CoreConfig()
    keyed, fresh = _bound_programs("aes1")
    trace_key(keyed, config)
    for program in (keyed, fresh):
        loaded = pickle.loads(pickle.dumps(program))
        assert bound_template(loaded) is not None
        assert trace_key(loaded, config) == trace_key(program, config) \
            == seed_trace_keys(program, config)[1]


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


@pytest.mark.parametrize("payload", [
    b"\x80\x05\x8c\x02\xff\xfe.",                 # UnicodeDecodeError
    b"\x80\x05\x8e" + b"\xff" * 7 + b"\x7f.",       # OverflowError
], ids=["unicode", "overflow"])
def test_corrupt_pickle_on_disk_is_a_miss(tmp_path, payload):
    program, device = isolation_probe(ALU), HardwareDevice()
    with trace_cache_disabled():
        cold = device.capture_ideal(program)
    directory = tmp_path / "cache"
    configure_trace_cache(directory=str(directory))
    device.capture_ideal(program)
    # one entry holds the device trace, the other the measurement
    [entry] = [path for path in directory.iterdir()
               if isinstance(pickle.loads(zlib.decompress(
                   path.read_bytes())), Measurement)]
    # compressed, so the corrupt pickle reaches pickle.loads
    entry.write_bytes(zlib.compress(payload))
    configure_trace_cache(clear=True)
    capture = device.capture_ideal(program)
    assert np.array_equal(capture.signal, cold.signal)
    assert trace_bytes(capture.trace) == trace_bytes(cold.trace)
    rewritten = TraceCache(directory=str(directory)).lookup(entry.stem)
    assert rewritten is not None
    assert np.array_equal(rewritten.signal, cold.signal)


#: one disk entry for the truncation and corruption properties.
_TRACE = run_program(fibonacci(6))[0]
with tempfile.TemporaryDirectory() as _directory:
    TraceCache(directory=_directory).store("entry", _TRACE)
    with open(f"{_directory}/entry.pkl", "rb") as _handle:
        _ENTRY = _handle.read()


def _lookup_entry(payload):
    """What a fresh disk-backed cache serves for an entry of ``payload``."""
    with tempfile.TemporaryDirectory() as directory:
        with open(f"{directory}/entry.pkl", "wb") as handle:
            handle.write(payload)
        return TraceCache(directory=directory).lookup("entry")


def test_disk_entry_round_trips():
    # the properties below mangle a valid entry, not an unreadable one
    assert_traces_identical(_TRACE, _lookup_entry(_ENTRY))


@given(cut=st.integers(0, len(_ENTRY) - 1))
@settings(max_examples=60, deadline=None)
def test_truncated_disk_entry_is_a_miss(cut):
    assert _lookup_entry(_ENTRY[:cut]) is None


@given(position=st.integers(0, len(_ENTRY) - 1),
       flip=st.integers(1, 255))
@settings(max_examples=60, deadline=None)
def test_corrupted_disk_entry_never_loads_a_wrong_trace(position, flip):
    corrupted = bytearray(_ENTRY)
    corrupted[position] ^= flip
    value = _lookup_entry(bytes(corrupted))
    # a few flips (the zlib header's level bits, deflate code lengths of
    # unused symbols) leave the stream's content as it was; every other
    # flip fails decompression or its checksum
    if value is not None:
        assert_traces_identical(_TRACE, value)


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


# ---------------------------------------------------------------------------
# EMSim shares the device's scalar-trace entry
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def simulator():
    """A full-model simulator on the default core (traces need no fit)."""
    return EMSim(EMSimModel(config=EMSimConfig()))


@pytest.fixture()
def registry():
    """The metrics registry, enabled and empty for one test."""
    registry = enable_metrics()
    registry.reset()
    yield registry
    disable_metrics()
    registry.reset()


def _aes(count, seed=6):
    rng = np.random.default_rng(seed)
    return [aes_program(list(range(16)),
                        [int(byte) for byte in rng.integers(0, 256, 16)],
                        rounds=1)
            for _ in range(count)]


def test_device_reuses_emsim_scalar_runs_but_not_replays(
        simulator, core_runs, registry):
    programs = _aes(3)
    device = HardwareDevice()
    simulated = [simulator.run_trace(program) for program in programs]
    # bound from one template: a recording, then two replays
    assert len(core_runs) == 1
    assert registry.counters["trace_cache.sim.recordings"] == 1
    assert registry.counters["trace_cache.sim.replays"] == 2
    captured = [device.run_trace(programs[0])]
    assert len(core_runs) == 1 and captured[0] is simulated[0]
    captured += [device.run_trace(program) for program in programs[1:]]
    assert len(core_runs) == 3
    assert all(mine is not theirs
               for mine, theirs in zip(captured[1:], simulated[1:]))
    with trace_cache_disabled():
        scalar = [trace_bytes(device.run_trace(program))
                  for program in programs]
    assert [trace_bytes(trace) for trace in simulated] == scalar
    assert [trace_bytes(trace) for trace in captured] == scalar


def test_emsim_reuses_the_device_trace(simulator, core_runs, registry):
    program = _aes(1)[0]
    captured = HardwareDevice().run_trace(program)
    assert len(core_runs) == 1
    assert simulator.run_trace(program) is captured
    assert len(core_runs) == 1
    assert registry.counters["trace_cache.sim.scalar_hits"] == 1
    family = code_family_key(program, simulator.core_config,
                             salt="sim:mispredicts=True")
    assert get_trace_cache().family(family) is None


def test_out_of_order_traces_are_shared_both_ways():
    simulator = EMSim(EMSimModel(config=EMSimConfig()),
                      core_kind="out-of-order")
    device = HardwareDevice(core_kind="out-of-order")
    device_first, emsim_first = isolation_probe(ALU), pair_probe(ALU, LOAD)
    captured = device.run_trace(device_first)
    assert simulator.run_trace(device_first) is captured
    simulated = simulator.run_trace(emsim_first)
    assert device.run_trace(emsim_first) is simulated


@pytest.mark.parametrize("flag", ["model_mispredicts", "model_cache"])
def test_ablations_never_get_the_device_trace(simulator, registry, flag):
    program = _aes(1)[0]
    captured = HardwareDevice().run_trace(program)
    ablated = simulator.with_switches(**{flag: False})
    traces = [ablated.run_trace(program) for _ in range(2)]
    with trace_cache_disabled():
        own = trace_bytes(ablated.run_trace(program))
    assert all(trace is not captured for trace in traces)
    assert [trace_bytes(trace) for trace in traces] == [own, own]
    assert own != trace_bytes(captured)
    assert "trace_cache.sim.scalar_hits" not in registry.counters


def test_savat_sweep_runs_the_core_once_per_program(simulator, core_runs):
    device = HardwareDevice()
    pairs = [("ADD", "MUL"), ("LDC", "DIV")]

    def measured(program):
        capture = device.capture_ideal(program)
        return capture.signal, capture.num_cycles

    for source in (SimulatorSignalSource(simulator), measured):
        savat_matrix(source, device.samples_per_cycle, pairs=pairs)
    assert len(core_runs) == len(pairs)

"""Core and cache configs reject values the core cannot run.

Each rejected value used to hang the core or divide by zero: negative
extra cycles kept an access in the Memory stage until ``max_cycles``, a
cache with no set divided by zero at its first access (or at
construction), and a BTB with no entry at its first lookup.  They are
:class:`ConfigurationError` (exit 16) now, which is still a
``ValueError``.
"""

import pytest

from repro.robustness import ConfigurationError
from repro.uarch import CacheConfig, CoreConfig, run_program
from repro.workloads import fibonacci


@pytest.mark.parametrize("options", [
    {"hit_extra_cycles": -1},
    {"miss_extra_cycles": -1},
    {"size_bytes": 0},
    {"size_bytes": -64},
    {"line_bytes": 0},
    {"ways": 0},
    {"size_bytes": 1000},
    {"size_bytes": 1024, "line_bytes": 24},
], ids=["hit-extra-negative", "miss-extra-negative", "size-zero",
        "size-negative", "line-zero", "ways-zero", "size-not-multiple",
        "line-not-power-of-two"])
def test_cache_config_rejects(options):
    with pytest.raises(ConfigurationError):
        CacheConfig(**options)


@pytest.mark.parametrize("options", [
    {"btb_entries": 0},
    {"mul_latency": 0},
    {"div_latency": 0},
    {"predictor": "perceptron"},
], ids=["btb-zero", "mul-latency-zero", "div-latency-zero",
        "unknown-predictor"])
def test_core_config_rejects(options):
    with pytest.raises(ConfigurationError):
        CoreConfig(**options)


def test_configuration_error_keeps_the_value_error_contract():
    assert issubclass(ConfigurationError, ValueError)
    assert ConfigurationError.exit_code == 16


def test_smallest_accepted_configs_run_to_halt():
    config = CoreConfig(btb_entries=1, cache=CacheConfig(
        size_bytes=4, line_bytes=4, ways=1, hit_extra_cycles=0,
        miss_extra_cycles=0))
    trace, core = run_program(fibonacci(6), config=config)
    assert core.halted and core.regfile.peek(10) == 8
    assert trace.num_cycles < 200

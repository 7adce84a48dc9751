"""Configuration of the simulated in-order RV32IM core.

Defaults mirror the processor EMSim was validated on (HPCA 2020, §II-A):
five pipeline stages, a 2-level branch predictor with a BTB, a 32-entry
register file and a 32 KB data cache where a hit costs one extra cycle and a
miss costs two further cycles.  Every latency is a parameter so the paper's
"these delays can be changed, e.g. to study their effect on the side-channel
signal" knob is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..robustness.errors import ConfigurationError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of the data cache.

    Construction raises :class:`~repro.robustness.errors.ConfigurationError`
    for a geometry with no set (a size, line or way count below 1, or a
    size that is not a multiple of line × ways), a line size that is not
    a power of two, or negative extra cycles, which would keep an access
    in the Memory stage forever.
    """

    size_bytes: int = 32 * 1024
    line_bytes: int = 32
    ways: int = 2
    hit_extra_cycles: int = 1    # "cache-hit takes one extra cycle"
    miss_extra_cycles: int = 2   # "reading from memory takes extra 2 cycles"

    def __post_init__(self) -> None:
        if min(self.size_bytes, self.line_bytes, self.ways) < 1:
            raise ConfigurationError(
                "cache size, line size and ways must be >= 1")
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ConfigurationError(
                "cache size must be a multiple of line*ways")
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError("line size must be a power of two")
        if self.hit_extra_cycles < 0 or self.miss_extra_cycles < 0:
            raise ConfigurationError(
                "cache hit and miss extra cycles must be >= 0")

    @property
    def num_sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass(frozen=True)
class CoreConfig:
    """Full microarchitectural configuration of the 5-stage core.

    Construction raises :class:`~repro.robustness.errors.ConfigurationError`
    for a functional-unit latency below 1, an unknown predictor kind or
    a BTB with no entry (a count that is not a power of two is rejected
    when the BTB is built).
    """

    # Functional-unit latencies (total cycles spent in Execute).
    mul_latency: int = 3
    div_latency: int = 8

    # Data-path features.
    forwarding: bool = True

    # Branch handling: misprediction is detected at the end of Execute,
    # "2 cycles in our design", flushing two younger instructions.
    predictor: str = "two-level"  # one of: "not-taken", "two-level", "gshare"
    predictor_history_bits: int = 4
    predictor_table_bits: int = 10
    btb_entries: int = 64

    cache: CacheConfig = field(default_factory=CacheConfig)

    # Simulation guard rail.
    max_cycles: int = 2_000_000

    def __post_init__(self) -> None:
        if self.mul_latency < 1 or self.div_latency < 1:
            raise ConfigurationError(
                "functional-unit latencies must be >= 1")
        if self.predictor not in ("not-taken", "two-level", "gshare"):
            raise ConfigurationError(
                f"unknown predictor kind: {self.predictor!r}")
        if self.btb_entries < 1:
            raise ConfigurationError("BTB entry count must be >= 1")


DEFAULT_CONFIG = CoreConfig()
"""The paper's baseline core configuration."""

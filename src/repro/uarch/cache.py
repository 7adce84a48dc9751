"""Set-associative write-back data cache with LRU replacement.

Only timing and occupancy are modeled (data always comes from
:class:`~repro.uarch.memory.MainMemory`); the cache decides *hit or miss*,
which drives the stall cycles that dominate the EM signature of loads
(HPCA 2020, Fig. 6, and the LDM/LDC distinction of Table II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .config import CacheConfig


@dataclass
class _Line:
    tag: int
    dirty: bool = False


class DataCache:
    """LRU set-associative cache tracking hits, misses and writebacks."""

    def __init__(self, config: Optional[CacheConfig] = None):
        self.config = config or CacheConfig()
        # the geometry, read on every access (num_sets divides)
        self._line_bytes = self.config.line_bytes
        self._num_sets = self.config.num_sets
        self._ways = self.config.ways
        # Each set is an LRU-ordered list, most recently used last.
        self._sets: Dict[int, List[_Line]] = {}
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # -- geometry helpers ------------------------------------------------
    def _index_and_tag(self, address: int) -> tuple:
        block = address // self._line_bytes
        return block % self._num_sets, block // self._num_sets

    # -- operations --------------------------------------------------------
    def access(self, address: int, is_store: bool) -> bool:
        """Access ``address``; returns True on hit.

        Misses allocate (write-allocate policy) and may evict a dirty line,
        which is counted as a writeback.
        """
        # _index_and_tag, inlined: every core and replay access runs it
        block = address // self._line_bytes
        set_index = block % self._num_sets
        tag = block // self._num_sets
        lines = self._sets.get(set_index)
        if lines is None:
            lines = self._sets[set_index] = []
        for position, line in enumerate(lines):
            if line.tag == tag:
                if position != len(lines) - 1:
                    lines.append(lines.pop(position))  # promote to MRU
                if is_store:
                    line.dirty = True
                self.hits += 1
                return True
        self.misses += 1
        if len(lines) >= self._ways:
            victim = lines.pop(0)
            if victim.dirty:
                self.writebacks += 1
        lines.append(_Line(tag=tag, dirty=is_store))
        return False

    def probe(self, address: int) -> bool:
        """Non-destructive hit check (no allocation, no LRU update)."""
        set_index, tag = self._index_and_tag(address)
        return any(line.tag == tag
                   for line in self._sets.get(set_index, ()))

    def warm(self, addresses) -> None:
        """Pre-fill lines for the given byte addresses (test setup)."""
        for address in addresses:
            self.access(address, is_store=False)

    def flush(self) -> None:
        """Invalidate all lines and reset statistics."""
        self._sets.clear()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def accesses(self) -> int:
        """Total accesses so far."""
        return self.hits + self.misses

"""Flat byte-addressable main memory."""

from __future__ import annotations

from typing import Dict, Mapping

from ..isa.encoding import sign_extend

MASK32 = 0xFFFFFFFF


class MainMemory:
    """Sparse little-endian byte-addressable memory (reads-as-zero)."""

    def __init__(self, image: Mapping[int, int] = ()):
        self._bytes: Dict[int, int] = dict(image)

    def load(self, address: int, nbytes: int, signed: bool = False) -> int:
        """Read ``nbytes`` little-endian; optionally sign-extend to 32 bits."""
        get = self._bytes.get
        value = get(address & MASK32, 0)
        for index in range(1, nbytes):
            value |= get((address + index) & MASK32, 0) << (8 * index)
        if signed:
            return sign_extend(value, 8 * nbytes) & MASK32
        return value

    def store(self, address: int, value: int, nbytes: int) -> None:
        """Write the low ``nbytes`` of ``value`` little-endian."""
        for index in range(nbytes):
            self._bytes[(address + index) & MASK32] = \
                (value >> (8 * index)) & 0xFF

    def load_word(self, address: int) -> int:
        """Read an aligned-or-not 32-bit little-endian word."""
        return self.load(address, 4)

    def snapshot(self) -> Dict[int, int]:
        """Copy of the current byte image (for test comparison)."""
        return dict(self._bytes)

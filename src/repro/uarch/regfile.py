"""32-entry architectural register file with x0 hardwired to zero."""

from __future__ import annotations

from typing import List


class RegisterFile:
    """The 32x32-bit integer register file of the core.

    Writes to x0 are ignored, matching the RISC-V architectural contract.
    """

    def __init__(self) -> None:
        self._values: List[int] = [0] * 32

    def write(self, index: int, value: int) -> None:
        """Write register ``index``; writes to x0 are dropped."""
        if index == 0:
            return
        self._values[index] = value & 0xFFFFFFFF

    def peek(self, index: int) -> int:
        """Read register ``index`` (x0 reads as 0)."""
        return self._values[index]

    def dump(self) -> List[int]:
        """Copy of all 32 register values."""
        return list(self._values)

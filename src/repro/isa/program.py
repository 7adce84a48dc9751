"""Program container: code, initial data image, and symbols.

A :class:`Program` is what the assembler produces and what the pipeline,
the hardware emitter, and EMSim all consume.  Code lives at
:data:`TEXT_BASE`; the initial data image is a sparse ``address -> byte``
mapping applied to main memory before execution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .instructions import Instruction

TEXT_BASE = 0x0000_0000
"""Base address of the code segment."""

DATA_BASE = 0x0001_0000
"""Default base address of the data segment."""


@dataclass
class Program:
    """An executable image for the simulated RV32IM core."""

    instructions: List[Instruction]
    data: Dict[int, int] = field(default_factory=dict)
    symbols: Dict[str, int] = field(default_factory=dict)
    entry: int = TEXT_BASE
    name: str = "program"

    def __post_init__(self) -> None:
        try:
            bytes(self.data.values())
        except (TypeError, ValueError):
            # name the first bad address; values ``bytes`` declines but
            # the range check takes (``3.0``) are still accepted
            for address, value in self.data.items():
                if not 0 <= value < 256:
                    raise ValueError(
                        f"data byte at {address:#x} out of range: {value}")

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def machine_code(self) -> List[int]:
        """Encoded 32-bit words, one per instruction."""
        return [instr.encode() for instr in self.instructions]

    def instruction_at(self, address: int) -> Optional[Instruction]:
        """Return the instruction at byte ``address`` or None if outside."""
        offset = address - TEXT_BASE
        if offset < 0 or offset % 4:
            return None
        index = offset // 4
        if index >= len(self.instructions):
            return None
        return self.instructions[index]

    def address_of(self, index: int) -> int:
        """Byte address of the ``index``-th instruction."""
        return TEXT_BASE + 4 * index

    def with_data(self, segments: Mapping[int, Iterable[int]]) -> "Program":
        """Return a copy with each ``base -> bytes`` segment stored in its
        data image (see :func:`store_bytes`).

        The code is not reassembled: the copy's instruction list holds
        this program's :class:`Instruction` objects, so their memoized
        encodings are shared too.  The AES generator binds each key
        schedule and plaintext into its assembled template this way.

        Binding says that more data images of the same code will follow,
        so the copy remembers its template (:func:`bound_template`; a
        copy of a copy, the root template).  The trace cache then
        serializes only the copy's data image, and EMSim records the
        schedule of such a code family on its first miss.
        """
        data = dict(self.data)
        for base, values in segments.items():
            store_bytes(data, base, values)
        copy = Program(instructions=list(self.instructions), data=data,
                       symbols=dict(self.symbols), entry=self.entry,
                       name=self.name)
        root = bound_template(self)
        copy._template = self if root is None else root
        return copy

    def to_asm(self) -> str:
        """Render the code segment as assembly text (no labels)."""
        return "\n".join(instr.to_asm() for instr in self.instructions)

    @classmethod
    def from_instructions(cls, instructions: Iterable[Instruction],
                          name: str = "program") -> "Program":
        """Build a program from a plain instruction sequence."""
        return cls(instructions=list(instructions), name=name)


def bound_template(program: Program) -> Optional[Program]:
    """The template :meth:`Program.with_data` bound ``program`` from (the
    root template for a copy of a copy), or ``None`` for any other
    program."""
    return getattr(program, "_template", None)


def store_bytes(data: Dict[int, int], base: int,
                values: Iterable[int]) -> None:
    """Write ``values`` into a byte map from ``base`` up, each masked to
    its low 8 bits (what the assembler's ``.byte`` directive stores)."""
    data.update(zip(itertools.count(base),
                    [int(value) & 0xFF for value in values]))


def store_words(data: Dict[int, int], base: int,
                words: Sequence[int]) -> None:
    """Write 32-bit little-endian ``words`` into a byte map at ``base``."""
    store_bytes(data, base, b"".join(
        (int(word) & 0xFFFFFFFF).to_bytes(4, "little") for word in words))

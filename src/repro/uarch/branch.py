"""Branch prediction: direction predictors and a branch target buffer.

The evaluated core uses "a branch prediction unit with a 2-level predictor
and a branch-target-buffer" (HPCA 2020, §II-A).  ``always not-taken`` and
``gshare`` variants are provided because the paper reports studying different
predictors and finding no statistically significant EM difference (§IV); the
ablation benchmark reproduces that comparison.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..robustness.errors import ConfigurationError


class _SaturatingCounter:
    """Classic 2-bit saturating taken/not-taken counter."""

    __slots__ = ("value",)

    def __init__(self, value: int = 1):
        self.value = value

    @property
    def taken(self) -> bool:
        return self.value >= 2

    def update(self, taken: bool) -> None:
        if taken:
            self.value = min(3, self.value + 1)
        else:
            self.value = max(0, self.value - 1)


class DirectionPredictor:
    """Interface for conditional-branch direction predictors."""

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        """Train with the resolved outcome."""
        raise NotImplementedError

    def state_signature(self) -> int:
        """Small integer summarizing mutable state (for activity tracing)."""
        return 0


class AlwaysNotTaken(DirectionPredictor):
    """Static predictor: every conditional branch predicted not taken."""

    def predict(self, pc: int) -> bool:
        """Not taken, whatever the branch."""
        return False

    def update(self, pc: int, taken: bool) -> None:
        """Nothing to train: the prediction never changes."""


class TwoLevelAdaptive(DirectionPredictor):
    """Two-level adaptive predictor (Yeh & Patt): per-branch history
    registers indexing a shared pattern history table of 2-bit counters."""

    def __init__(self, history_bits: int = 4, table_bits: int = 10):
        self.history_bits = history_bits
        self.table_bits = table_bits
        self._histories: Dict[int, int] = {}
        self._pht: Dict[int, _SaturatingCounter] = {}
        self._last_outcome = 0

    def _pht_index(self, pc: int, history: int) -> int:
        return ((pc >> 2) << self.history_bits | history) & \
            ((1 << self.table_bits) - 1)

    def predict(self, pc: int) -> bool:
        """The counter that ``pc``'s own history selects; not taken
        before that counter has been trained."""
        history = self._histories.get(pc, 0)
        counter = self._pht.get(self._pht_index(pc, history))
        return counter.taken if counter else False

    def update(self, pc: int, taken: bool) -> None:
        """Train the selected counter, then shift the outcome into
        ``pc``'s history."""
        history = self._histories.get(pc, 0)
        index = self._pht_index(pc, history)
        counter = self._pht.setdefault(index, _SaturatingCounter())
        counter.update(taken)
        mask = (1 << self.history_bits) - 1
        self._histories[pc] = ((history << 1) | int(taken)) & mask
        self._last_outcome = int(taken)

    def state_signature(self) -> int:
        """The last resolved outcome (1 taken, 0 not taken)."""
        return self._last_outcome


class GShare(DirectionPredictor):
    """Gshare predictor: global history XORed with the PC."""

    def __init__(self, history_bits: int = 8, table_bits: int = 10):
        self.history_bits = history_bits
        self.table_bits = table_bits
        self._global_history = 0
        self._pht: Dict[int, _SaturatingCounter] = {}

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._global_history) & \
            ((1 << self.table_bits) - 1)

    def predict(self, pc: int) -> bool:
        """The counter that ``pc`` XOR the global history selects; not
        taken before that counter has been trained."""
        counter = self._pht.get(self._index(pc))
        return counter.taken if counter else False

    def update(self, pc: int, taken: bool) -> None:
        """Train the selected counter, then shift the outcome into the
        global history."""
        counter = self._pht.setdefault(self._index(pc), _SaturatingCounter())
        counter.update(taken)
        mask = (1 << self.history_bits) - 1
        self._global_history = ((self._global_history << 1) | int(taken)) \
            & mask

    def state_signature(self) -> int:
        """The two most recent outcomes of the global history."""
        return self._global_history & 0x3


class BranchTargetBuffer:
    """Direct-mapped, tagged BTB providing predicted targets at fetch."""

    def __init__(self, entries: int = 64):
        if entries < 1 or entries & (entries - 1):
            raise ConfigurationError(
                "BTB entry count must be a power of two")
        self.entries = entries
        self._table: Dict[int, Tuple[int, int]] = {}  # index -> (tag, tgt)

    def _index_tag(self, pc: int) -> Tuple[int, int]:
        word = pc >> 2
        return word % self.entries, word // self.entries

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target for ``pc``, or None on BTB miss."""
        index, tag = self._index_tag(pc)
        entry = self._table.get(index)
        if entry and entry[0] == tag:
            return entry[1]
        return None

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target for a taken control transfer."""
        index, tag = self._index_tag(pc)
        self._table[index] = (tag, target)


def make_predictor(kind: str, history_bits: int = 4,
                   table_bits: int = 10) -> DirectionPredictor:
    """Factory for the predictor kinds named in :class:`CoreConfig`."""
    if kind == "not-taken":
        return AlwaysNotTaken()
    if kind == "two-level":
        return TwoLevelAdaptive(history_bits=history_bits,
                                table_bits=table_bits)
    if kind == "gshare":
        return GShare(history_bits=max(history_bits, 8),
                      table_bits=table_bits)
    raise ConfigurationError(f"unknown predictor kind: {kind!r}")

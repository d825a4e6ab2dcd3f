"""Full/empty bits: the Qthreads synchronisation primitive.

Every 8-byte word can carry a *full* bit; ``writeEF`` blocks until the word
is empty, writes, and marks it full; ``readFE`` blocks until full, reads,
and marks it empty; ``readFF`` reads without consuming.  This is classic
M-structure/I-structure synchronisation (Tera MTA lineage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class FebWord:
    """The synchronisation state of one address."""

    full: bool = False
    value: object = None
    #: monotonically increasing transfer counter (tools key HB edges on it)
    generation: int = 0


class FebTable:
    """FEB state per address (the runtime's hashed FEB table)."""

    def __init__(self) -> None:
        self._words: Dict[int, FebWord] = {}

    def word(self, addr: int) -> FebWord:
        w = self._words.get(addr)
        if w is None:
            w = self._words[addr] = FebWord()
        return w

    def is_full(self, addr: int) -> bool:
        return self.word(addr).full

    def fill(self, addr: int, value: object) -> int:
        """Mark full with ``value``; returns the new generation."""
        w = self.word(addr)
        w.full = True
        w.value = value
        w.generation += 1
        return w.generation

    def drain(self, addr: int) -> object:
        """Mark empty; returns the stored value."""
        w = self.word(addr)
        w.full = False
        return w.value

    def peek(self, addr: int) -> object:
        return self.word(addr).value

"""The committed memory image.

A single coherent word-addressed value store.  Consistency models layer
their uncommitted state (store buffers, chunk write buffers) on top; a
value reaches :class:`MainMemory` exactly when it becomes architecturally
visible to every processor.  This is what makes the litmus tests in
:mod:`repro.verify` meaningful: a weak model that drains its store buffer
late really does expose stale values to other processors.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple


class MainMemory:
    """Word-addressed value store, default-zero."""

    def __init__(self) -> None:
        #: word address -> value, nonzero words only.  Public so the BulkSC
        #: run loop can read a word inline (``words.get(addr, 0)``).
        self.words: Dict[int, int] = {}

    def read(self, word_addr: int) -> int:
        return self.words.get(word_addr, 0)

    def write(self, word_addr: int, value: int) -> None:
        if value == 0:
            self.words.pop(word_addr, None)
        else:
            self.words[word_addr] = value

    def write_many(self, updates: Iterable[Tuple[int, int]]) -> None:
        """Apply a batch of (address, value) updates atomically.

        Used by chunk commit: all of a chunk's stores become visible in one
        step, which is what makes chunks appear atomic to other processors.
        """
        for word_addr, value in updates:
            self.write(word_addr, value)

    def peek(self, word_addr: int) -> int:
        """:meth:`read` under the name verification and debug code use."""
        return self.words.get(word_addr, 0)

    def nonzero_words(self) -> Dict[int, int]:
        return dict(self.words)

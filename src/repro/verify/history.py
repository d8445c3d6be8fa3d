"""Recording of globally visible memory operations.

The history is stored the way BulkSC makes memory visible: in blocks.
A committed chunk is one block (:meth:`ExecutionHistory.record_ops`); a
baseline or sync op is a one-op block (:meth:`ExecutionHistory.record`).
A block is a ``(time, proc, chunk_id, count)`` header plus its ``count``
op tuples ``(is_store, word_addr, value, program_index)``, which sit in
one flat op list shared by all blocks.  Headers and ops hold only atoms
and nest no container, so one collection takes every one of them off the
cyclic GC's books.

Readers see per-op rows (:meth:`ExecutionHistory.rows`) and never block
boundaries: a block is a storage unit, not a claim about atomicity, and
the checkers must find a chunk split across two blocks on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

#: One recorded op: ``(is_store, word_addr, value, program_index)``.
Op = Tuple[bool, int, int, int]
#: One per-op row: ``(seq, time, proc, is_store, word_addr, value,
#: program_index, chunk_id)`` — the fields of :class:`MemoryEvent`.
Row = Tuple[int, float, int, bool, int, int, int, Optional[int]]


@dataclass(frozen=True)
class MemoryEvent:
    """One memory operation at its global visibility point.

    Attributes:
        seq: Global visibility order (assigned by the history).
        time: Simulated cycle of visibility.
        proc: Issuing processor.
        is_store: Store vs load.
        word_addr: Word address accessed.
        value: Value written (store) or returned (load).
        program_index: The op's index in its thread program — used to
            check per-processor program order.
        chunk_id: BulkSC chunk the op committed with, if any.
    """

    seq: int
    time: float
    proc: int
    is_store: bool
    word_addr: int
    value: int
    program_index: int
    chunk_id: Optional[int] = None


class ExecutionHistory:
    """An append-only log of visibility events, stored as blocks.

    Recording is optional (``enabled=False`` for large benchmark runs);
    models must tolerate a disabled history.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: One ``(time, proc, chunk_id, count)`` header per block.
        self._heads: List[Tuple[float, int, Optional[int], int]] = []
        #: Every recorded op in visibility order; an op's index is its seq.
        self._ops: List[Op] = []

    def record(
        self,
        time: float,
        proc: int,
        is_store: bool,
        word_addr: int,
        value: int,
        program_index: int,
        chunk_id: Optional[int] = None,
    ) -> None:
        """Record one op, visible at ``time``, as a one-op block."""
        if not self.enabled:
            return
        self._heads.append((time, proc, chunk_id, 1))
        self._ops.append((is_store, word_addr, value, program_index))

    def record_ops(
        self, time: float, proc: int, chunk_id: Optional[int], ops: Iterable[Op]
    ) -> None:
        """Record ``ops``, in order, all visible at ``time``, as one block.

        The op tuples are copied out of ``ops``, so the caller may keep
        mutating its list.
        """
        if not self.enabled:
            return
        recorded = self._ops
        start = len(recorded)
        recorded.extend(ops)
        if len(recorded) > start:
            self._heads.append((time, proc, chunk_id, len(recorded) - start))

    def rows(self) -> Iterator[Row]:
        """Every op as a :data:`Row`, in visibility order."""
        ops = self._ops
        seq = 0
        for time, proc, chunk_id, count in self._heads:
            for is_store, word_addr, value, program_index in ops[seq : seq + count]:
                yield (seq, time, proc, is_store, word_addr, value, program_index, chunk_id)
                seq += 1

    def events(self) -> Iterator[MemoryEvent]:
        """Every op as a :class:`MemoryEvent`, built on demand."""
        for row in self.rows():
            yield MemoryEvent(*row)

    def __len__(self) -> int:
        return len(self._ops)

    def events_for_proc(self, proc: int) -> List[MemoryEvent]:
        return [MemoryEvent(*row) for row in self.rows() if row[2] == proc]

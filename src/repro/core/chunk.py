"""The chunk abstraction (paper Section 3.1).

A chunk is a dynamically-formed group of consecutive instructions that
executes speculatively, atomically, and in isolation:

* its stores buffer in a private write buffer (``Rule1``: updates are
  invisible until commit);
* its loads are validated by bulk disambiguation — if a committing remote
  chunk wrote anything this chunk read, the chunk squashes (``Rule2``);
* a register checkpoint taken at the chunk boundary makes squash cheap.

The chunk can also log its memory operations in program order so commit
can emit them into the execution history at the visibility instant — which
is what lets the SC checker validate chunked executions end to end.  The
run loop keeps that log only while something reads it (see
:attr:`Chunk.ops`).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from repro.cpu.checkpoint import Checkpoint
from repro.signatures.base import Signature


class ChunkState(Enum):
    EXECUTING = "executing"
    COMPLETE = "complete"  # finished executing; awaiting its arbitration turn
    ARBITRATING = "arbitrating"  # permission-to-commit sent
    GRANTED = "granted"  # arbiter said yes; commit transaction in flight
    COMMITTED = "committed"
    SQUASHED = "squashed"


#: One logged memory operation, replayed into the history at commit.
#: A plain ``(is_store, word_addr, value, program_index)`` tuple — the
#: log grows by one entry per memory op, so construction cost matters.
ChunkOp = Tuple[bool, int, int, int]


class Chunk:
    """One in-flight chunk on one processor."""

    def __init__(
        self,
        chunk_id: int,
        proc: int,
        checkpoint: Checkpoint,
        r_sig: Signature,
        w_sig: Signature,
        wpriv_sig: Signature,
        target_instructions: int,
    ):
        self.chunk_id = chunk_id
        self.proc = proc
        self.checkpoint = checkpoint
        self.r_sig = r_sig
        self.w_sig = w_sig
        self.wpriv_sig = wpriv_sig
        self.target_instructions = target_instructions
        self.state = ChunkState.EXECUTING
        self.instructions = 0
        # Speculative values: word address -> value (Rule1 buffering).
        self.write_buffer: Dict[int, int] = {}
        #: Program-order op log, read at commit by the history and by
        #: ``commit.serialize`` subscribers.  The BulkSC run loop appends
        #: to it only while history recording is on or a subscriber is
        #: attached, so with neither it may be empty, or hold only the
        #: sync ops, even after loads and stores ran; :attr:`instructions`
        #: is what counts executed work.
        self.ops: List[ChunkOp] = []
        # Ground truth line sets (simulator bookkeeping for aliasing stats).
        self.true_read_lines: Set[int] = set()
        self.true_written_lines: Set[int] = set()
        self.true_private_lines: Set[int] = set()
        # Lines whose pre-images sit in the Private Buffer (dypvt).
        self.private_buffer_lines: Set[int] = set()
        self.squash_count = 0
        self.close_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Execution-side mutation
    # ------------------------------------------------------------------
    def note_load(self, word_addr: int, value: int, program_index: int) -> None:
        self.ops.append((False, word_addr, value, program_index))

    def note_store(self, word_addr: int, value: int, program_index: int) -> None:
        self.write_buffer[word_addr] = value
        self.ops.append((True, word_addr, value, program_index))

    def local_value(self, word_addr: int) -> Optional[int]:
        """Forward from this chunk's own write buffer."""
        return self.write_buffer.get(word_addr)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        """Active chunks participate in bulk disambiguation.

        Once granted, a chunk is serialized by the arbiter's W list and is
        immune to squash (its signatures are logically cleared).
        """
        return self.state in (
            ChunkState.EXECUTING,
            ChunkState.COMPLETE,
            ChunkState.ARBITRATING,
        )

    @property
    def is_done(self) -> bool:
        return self.state in (ChunkState.COMMITTED, ChunkState.SQUASHED)

    def mark(self, state: ChunkState) -> None:
        self.state = state

    def commit_updates(self) -> List[Tuple[int, int]]:
        """The (word, value) updates to publish at commit, in store order."""
        # Later stores to the same word overwrote earlier ones in the
        # buffer, so the buffer itself is the final image.
        return list(self.write_buffer.items())

    @property
    def is_empty(self) -> bool:
        """True while no instruction has run in this chunk.

        Every logged op also counts in :attr:`instructions`, so this never
        reads the op log, which may not be kept.
        """
        return self.instructions == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Chunk p{self.proc}#{self.chunk_id} {self.state.value} "
            f"instr={self.instructions} stores={len(self.write_buffer)}>"
        )

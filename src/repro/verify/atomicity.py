"""Chunk-atomicity validation for BulkSC histories.

The SC checker validates the *memory semantics* of a visibility history;
this module validates the *chunk abstraction itself* (paper Section 3.1):

* **Atomicity** — all of a chunk's operations occupy one contiguous block
  of the global visibility order; no other processor's operation
  interleaves inside it (Rule 1 + atomic commit).
* **Per-processor chunk order** — a processor's chunks appear in
  increasing chunk-id order (CReq1), and program indices never regress
  across chunk boundaries.
* **No resurrection** — a (proc, chunk-id) block appears at most once;
  squashed chunks never leave partial traces in the history.

Together with the SC witness check this gives the full proof obligation
of Section 3.1: chunks execute atomically, in isolation, and in a single
sequential order consistent with program order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.verify.history import ExecutionHistory, MemoryEvent


@dataclass(frozen=True)
class AtomicityCheckResult:
    """Outcome of a chunk-atomicity check."""

    ok: bool
    reason: str = ""
    offending_event: Optional[MemoryEvent] = None

    def __bool__(self) -> bool:
        return self.ok


def check_chunk_atomicity(history: ExecutionHistory) -> AtomicityCheckResult:
    """Validate the chunk abstraction over a recorded history.

    Events without a ``chunk_id`` (from baseline models) are treated as
    single-operation chunks and only constrain contiguity trivially.
    """
    # Pass 1: chunk blocks must be contiguous and unique.  The history's
    # storage blocks are ignored: contiguity is judged from the rows.
    seen_blocks: set = set()
    current_block: Optional[Tuple[int, int]] = None
    last_chunk_id: Dict[int, int] = {}
    last_program_index: Dict[int, int] = {}
    for row in history.rows():
        proc, chunk_id = row[2], row[7]
        if chunk_id is None:
            current_block = None
            continue
        block = (proc, chunk_id)
        if block == current_block:
            continue
        # A new block begins; it must never have appeared before.
        if block in seen_blocks:
            return AtomicityCheckResult(
                ok=False,
                reason=(
                    f"proc {proc} chunk {chunk_id} is split: its "
                    "operations do not form one contiguous block of the "
                    "visibility order (atomic commit violated)"
                ),
                offending_event=MemoryEvent(*row),
            )
        seen_blocks.add(block)
        current_block = block
        # Per-processor chunk ids must increase (in-order commit).
        previous = last_chunk_id.get(proc)
        if previous is not None and chunk_id <= previous:
            return AtomicityCheckResult(
                ok=False,
                reason=(
                    f"proc {proc}: chunk {chunk_id} committed "
                    f"after chunk {previous} (per-processor chunk order "
                    "violated, CReq1)"
                ),
                offending_event=MemoryEvent(*row),
            )
        last_chunk_id[proc] = chunk_id
    # Pass 2: program order within and across the processor's blocks.
    for row in history.rows():
        proc, program_index = row[2], row[6]
        previous = last_program_index.get(proc, -1)
        if program_index < previous:
            return AtomicityCheckResult(
                ok=False,
                reason=(
                    f"proc {proc}: program index {program_index} "
                    f"after {previous} (program order broken inside or "
                    "across chunks)"
                ),
                offending_event=MemoryEvent(*row),
            )
        last_program_index[proc] = program_index
    return AtomicityCheckResult(ok=True)


def chunk_blocks(history: ExecutionHistory) -> List[Tuple[int, int, int]]:
    """Summarize the history as ``(proc, chunk_id, op_count)`` blocks.

    Useful for tests and debugging: the block sequence *is* the chunk
    serialization order the arbiter produced.  Blocks are rebuilt from
    the rows, so a chunk the history stored in two adjacent pieces is one
    block here, and a split one shows up twice.
    """
    blocks: List[Tuple[int, int, int]] = []
    for row in history.rows():
        proc, chunk_id = row[2], row[7]
        if chunk_id is None:
            continue
        if blocks and blocks[-1][0] == proc and blocks[-1][1] == chunk_id:
            blocks[-1] = (proc, chunk_id, blocks[-1][2] + 1)
        else:
            blocks.append((proc, chunk_id, 1))
    return blocks

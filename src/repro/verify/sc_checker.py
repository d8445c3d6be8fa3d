"""Sequential-consistency witness checking.

Lamport's definition requires a single sequential order of all memory
operations that (a) embeds every processor's program order and (b) has
each read return the most recent preceding write.  Our models record
operations at their *visibility points*, so the recorded order is the
candidate sequential order; checking SC reduces to validating it:

1. **Program order** — for each processor, the recorded sequence of its
   own operations must be ordered by program index.
2. **Read values** — replaying the recorded order against a fresh memory
   image, every load must return the current value.

A history passing both checks is a constructive proof the execution was
sequentially consistent.  A failing history yields a precise witness (the
first offending event) — which is exactly what the RC litmus runs
produce, demonstrating that the checker has teeth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConsistencyViolation
from repro.verify.history import ExecutionHistory, MemoryEvent


@dataclass(frozen=True)
class SCCheckResult:
    """Outcome of an SC check."""

    ok: bool
    reason: str = ""
    offending_event: Optional[MemoryEvent] = None

    def __bool__(self) -> bool:
        return self.ok


def check_sequential_consistency(
    history: ExecutionHistory,
    initial_memory: Optional[Dict[int, int]] = None,
) -> SCCheckResult:
    """Validate a visibility history as an SC witness.

    Args:
        history: The recorded execution.
        initial_memory: Pre-existing word values (defaults to all-zero).

    Returns:
        ``SCCheckResult(ok=True)`` or a failure with the first offending
        event and a human-readable reason.
    """
    last_program_index: Dict[int, int] = {}
    memory: Dict[int, int] = dict(initial_memory or {})
    for row in history.rows():
        __, __, proc, is_store, word_addr, value, program_index, __ = row
        previous = last_program_index.get(proc, -1)
        if program_index < previous:
            return SCCheckResult(
                ok=False,
                reason=(
                    f"proc {proc}: op with program index "
                    f"{program_index} became visible after index {previous} "
                    "(program order violated in the global visibility order)"
                ),
                offending_event=MemoryEvent(*row),
            )
        last_program_index[proc] = program_index
        if is_store:
            memory[word_addr] = value
        else:
            expected = memory.get(word_addr, 0)
            if value != expected:
                return SCCheckResult(
                    ok=False,
                    reason=(
                        f"proc {proc}: load of word {word_addr:#x} "
                        f"returned {value} but the most recent store in "
                        f"the visibility order wrote {expected}"
                    ),
                    offending_event=MemoryEvent(*row),
                )
    return SCCheckResult(ok=True)


def assert_sequential_consistency(
    history: ExecutionHistory,
    initial_memory: Optional[Dict[int, int]] = None,
) -> None:
    """Raise :class:`ConsistencyViolation` if the history is not SC."""
    result = check_sequential_consistency(history, initial_memory)
    if not result.ok:
        raise ConsistencyViolation(result.reason, witness=result.offending_event)

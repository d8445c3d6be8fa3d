"""Exhaustive SC-outcome enumeration for small programs.

A sequentially consistent execution is some interleaving of the
threads' ops into one total order.  For small programs (the litmus
suite, hand-written kernels — ≲4 threads, bounded op counts) the whole
interleaving space fits in memory, so the *set of SC-allowed final
states* is computable exactly: depth-first search over machine states
``(pcs, registers, memory, barrier arrivals)`` with a visited set.

The unit of atomicity is a **chunk** of up to ``chunk_size``
instructions (barriers and I/O force a boundary, mirroring
:mod:`repro.core.chunking`).  ``chunk_size=1`` — the default — is
op-granular interleaving, i.e. the full SC outcome set; any chunked
execution (BulkSC commits whole chunks atomically) can only realize a
*subset* of it.  That containment is the cross-validation contract:
every final state a dynamic run produces must appear in the
``chunk_size=1`` enumeration, no matter where the dynamic chunk
boundaries fell.

States where no thread can step and not every thread has finished
(e.g. a barrier that can never fill, a never-released lock) are
reported as deadlocks rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.cpu.isa import (
    Barrier,
    Compute,
    Fence,
    Io,
    Load,
    LockAcquire,
    LockRelease,
    Op,
    SpinUntil,
    Store,
    resolve_operand,
)
from repro.cpu.thread import ThreadProgram
from repro.errors import ProgramError, ReproError

#: Default exploration budget (distinct states).
DEFAULT_MAX_STATES = 500_000
#: The enumerator is meant for litmus-scale programs.
DEFAULT_MAX_THREADS = 4


class EnumerationBudgetError(ReproError):
    """The state space exceeded the exploration budget."""


@dataclass(frozen=True)
class FinalState:
    """One SC-allowed end state of the program."""

    #: Per-thread register files: registers[t] == ((name, value), ...).
    registers: Tuple[Tuple[Tuple[str, int], ...], ...]
    #: Shared memory, touched words only: ((addr, value), ...).
    memory: Tuple[Tuple[int, int], ...]
    #: I/O device images: ((device, last_value), ...).
    devices: Tuple[Tuple[int, int], ...] = ()
    deadlocked: bool = False
    #: Per-thread pc at a deadlock (all-finished for normal termination).
    pcs: Tuple[int, ...] = ()

    def register_map(self) -> Dict[int, Dict[str, int]]:
        """Same shape as ``RunResult.registers``: proc -> name -> value."""
        return {t: dict(regs) for t, regs in enumerate(self.registers)}

    def memory_map(self) -> Dict[int, int]:
        return dict(self.memory)

    def describe(self) -> str:
        regs = "; ".join(
            f"t{t}:{{{', '.join(f'{n}={v}' for n, v in sorted(r))}}}"
            for t, r in enumerate(self.registers)
            if r
        )
        mem = ", ".join(f"{a:#x}={v}" for a, v in self.memory)
        parts = [p for p in (regs, f"mem {{{mem}}}" if mem else "") if p]
        text = "  ".join(parts) if parts else "(empty)"
        if self.deadlocked:
            stuck = ",".join(str(pc) for pc in self.pcs)
            return f"DEADLOCK at pcs [{stuck}]  {text}"
        return text


@dataclass
class EnumerationResult:
    """The enumerated SC outcome set."""

    final_states: List[FinalState]
    deadlocks: List[FinalState]
    states_explored: int
    chunk_size: int

    @property
    def ok(self) -> bool:
        return not self.deadlocks


# Internal search state ------------------------------------------------

#: (pcs, arrived-flags, per-thread regs, memory, devices)
_State = Tuple[
    Tuple[int, ...],
    Tuple[bool, ...],
    Tuple[Tuple[Tuple[str, int], ...], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
]


class _Machine:
    """Mutable scratch view of one search state."""

    def __init__(self, state: _State):
        pcs, arrived, regs, memory, devices = state
        self.pcs = list(pcs)
        self.arrived = list(arrived)
        self.regs = [dict(r) for r in regs]
        self.memory = dict(memory)
        self.devices = dict(devices)

    def freeze(self) -> _State:
        return (
            tuple(self.pcs),
            tuple(self.arrived),
            tuple(tuple(sorted(r.items())) for r in self.regs),
            tuple(sorted(self.memory.items())),
            tuple(sorted(self.devices.items())),
        )


def _op_enabled(machine: _Machine, thread: int, op: Op) -> bool:
    """Can this op execute right now without blocking?"""
    if isinstance(op, LockAcquire):
        return machine.memory.get(op.addr, 0) == 0
    if isinstance(op, SpinUntil):
        return machine.memory.get(op.addr, 0) == op.value
    if isinstance(op, Barrier):
        # Arrival is always possible; the *advance* past the barrier is
        # what waits. Handled in _step.
        return True
    return True


def _release_barrier_if_full(
    machine: _Machine, programs: Sequence[Sequence[Op]], barrier: Barrier
) -> None:
    """If every participant has arrived at this barrier, release them all."""
    arrived_threads = []
    for t, pc in enumerate(machine.pcs):
        if not machine.arrived[t] or pc >= len(programs[t]):
            continue
        op = programs[t][pc]
        if isinstance(op, Barrier) and op.barrier_id == barrier.barrier_id:
            arrived_threads.append(t)
    if len(arrived_threads) >= barrier.participants:
        for t in arrived_threads:
            machine.arrived[t] = False
            machine.pcs[t] += 1


def _step(
    machine: _Machine, programs: Sequence[Sequence[Op]], thread: int
) -> None:
    """Execute the thread's current op (must be enabled)."""
    op = programs[thread][machine.pcs[thread]]
    if isinstance(op, Load):
        machine.regs[thread][op.reg] = machine.memory.get(op.addr, 0)
        machine.pcs[thread] += 1
    elif isinstance(op, Store):
        value = resolve_operand(op.value, machine.regs[thread])
        machine.memory[op.addr] = value
        machine.pcs[thread] += 1
    elif isinstance(op, LockAcquire):
        machine.memory[op.addr] = 1
        machine.pcs[thread] += 1
    elif isinstance(op, LockRelease):
        machine.memory[op.addr] = 0
        machine.pcs[thread] += 1
    elif isinstance(op, Barrier):
        machine.arrived[thread] = True
        _release_barrier_if_full(machine, programs, op)
    elif isinstance(op, SpinUntil):
        machine.pcs[thread] += 1
    elif isinstance(op, Io):
        machine.devices[op.device] = resolve_operand(
            op.value, machine.regs[thread]
        )
        machine.pcs[thread] += 1
    elif isinstance(op, (Compute, Fence)):
        machine.pcs[thread] += 1
    else:  # pragma: no cover - future op kinds
        raise ProgramError(f"enumerator cannot interpret {op!r}")


def _chunk_stops(op: Op) -> bool:
    """Ops that end a chunk *after* executing (barrier, I/O — §4.1.3)."""
    return isinstance(op, (Barrier, Io))


def _run_chunk(
    machine: _Machine,
    programs: Sequence[Sequence[Op]],
    thread: int,
    chunk_size: int,
) -> bool:
    """Atomically run up to ``chunk_size`` instructions of one thread.

    Returns False when the thread could not make any progress (its next
    op is blocked), in which case ``machine`` is unmodified.
    """
    ops = programs[thread]
    executed = 0
    progressed = False
    while machine.pcs[thread] < len(ops):
        op = ops[machine.pcs[thread]]
        if not _op_enabled(machine, thread, op):
            break
        if isinstance(op, Barrier) and machine.arrived[thread]:
            break  # already arrived; only a full barrier moves the pc
        pc_before = machine.pcs[thread]
        arrived_before = machine.arrived[thread]
        _step(machine, programs, thread)
        if machine.pcs[thread] == pc_before and (
            machine.arrived[thread] == arrived_before
        ):
            break  # no progress possible (defensive)
        progressed = True
        executed += op.instruction_count
        if isinstance(op, Barrier) and machine.pcs[thread] == pc_before:
            break  # arrived and now waiting: chunk cannot continue
        if _chunk_stops(op) or executed >= chunk_size:
            break
    return progressed


def enumerate_sc_outcomes(
    programs: Sequence[ThreadProgram],
    chunk_size: int = 1,
    initial_memory: Optional[Dict[int, int]] = None,
    max_states: int = DEFAULT_MAX_STATES,
    max_threads: int = DEFAULT_MAX_THREADS,
) -> EnumerationResult:
    """Compute the exact set of SC-allowed final states.

    Args:
        programs: The thread programs (same input as ``run_workload``).
        chunk_size: Atomicity granularity in instructions; 1 = full SC.
        initial_memory: Pre-existing word values (default all-zero).
        max_states: Exploration budget; exceeding it raises
            :class:`EnumerationBudgetError` rather than returning a
            silently incomplete answer.
        max_threads: Guard against misuse on large workloads.

    Returns:
        :class:`EnumerationResult` with the deduplicated final states
        (and any reachable deadlock states, reported separately).
    """
    if len(programs) > max_threads:
        raise ProgramError(
            f"outcome enumeration supports at most {max_threads} threads, "
            f"got {len(programs)} (the state space is exponential)"
        )
    op_lists: List[List[Op]] = [list(p) for p in programs]
    initial: _State = (
        tuple(0 for __ in op_lists),
        tuple(False for __ in op_lists),
        tuple(() for __ in op_lists),
        tuple(sorted((initial_memory or {}).items())),
        (),
    )
    visited: Set[_State] = set()
    finals: Set[FinalState] = set()
    deadlocks: Set[FinalState] = set()
    stack: List[_State] = [initial]
    while stack:
        state = stack.pop()
        if state in visited:
            continue
        visited.add(state)
        if len(visited) > max_states:
            raise EnumerationBudgetError(
                f"exceeded {max_states} states at chunk_size={chunk_size}; "
                "shrink the program or raise max_states"
            )
        pcs = state[0]
        if all(pc >= len(ops) for pc, ops in zip(pcs, op_lists)):
            finals.add(
                FinalState(
                    registers=state[2],
                    memory=state[3],
                    devices=state[4],
                    pcs=pcs,
                )
            )
            continue
        any_progress = False
        for thread in range(len(op_lists)):
            if pcs[thread] >= len(op_lists[thread]):
                continue
            machine = _Machine(state)
            if _run_chunk(machine, op_lists, thread, chunk_size):
                any_progress = True
                successor = machine.freeze()
                if successor not in visited:
                    stack.append(successor)
        if not any_progress:
            deadlocks.add(
                FinalState(
                    registers=state[2],
                    memory=state[3],
                    devices=state[4],
                    deadlocked=True,
                    pcs=pcs,
                )
            )
    ordered_finals = sorted(finals, key=lambda s: (s.memory, s.registers))
    ordered_deadlocks = sorted(deadlocks, key=lambda s: (s.pcs, s.memory))
    return EnumerationResult(
        final_states=ordered_finals,
        deadlocks=ordered_deadlocks,
        states_explored=len(visited),
        chunk_size=chunk_size,
    )

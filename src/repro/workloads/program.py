"""Program construction helpers and the Workload container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.isa import (
    Barrier,
    Fence,
    Io,
    LockAcquire,
    LockRelease,
    Op,
    Operand,
    RegPlus,
    SpinUntil,
)
from repro.cpu.opstream import Encoder
from repro.cpu.thread import ThreadProgram
from repro.errors import ProgramError
from repro.memory.address import AddressSpace


class ProgramBuilder:
    """Fluent construction of one thread's op sequence.

    The builder writes each op straight into an
    :class:`~repro.cpu.opstream.Encoder`: loads, compute bursts and
    stores are encoded from their fields, with no op object built, and
    :meth:`build` adopts a snapshot of the encoded columns without
    encoding anything again.
    """

    def __init__(self, name: str = "program"):
        self.name = name
        self._encoder = Encoder()
        self._reg_counter = 0

    # -- basic ops ------------------------------------------------------
    def load(self, addr: int, reg: Optional[str] = None) -> "ProgramBuilder":
        if reg is None:
            self._reg_counter += 1
            reg = f"t{self._reg_counter}"
        self._encoder.load(reg, addr)
        return self

    def store(self, addr: int, value: Operand) -> "ProgramBuilder":
        self._encoder.store(addr, value)
        return self

    def compute(self, count: int) -> "ProgramBuilder":
        if count < 0:
            raise ProgramError(f"compute count must be >= 0, got {count}")
        if count > 0:
            self._encoder.compute(count)
        return self

    def acquire(self, lock_addr: int) -> "ProgramBuilder":
        self._encoder.append(LockAcquire(lock_addr))
        return self

    def release(self, lock_addr: int) -> "ProgramBuilder":
        self._encoder.append(LockRelease(lock_addr))
        return self

    def barrier(self, barrier_id: int, participants: int) -> "ProgramBuilder":
        self._encoder.append(Barrier(barrier_id, participants))
        return self

    def fence(self) -> "ProgramBuilder":
        self._encoder.append(Fence())
        return self

    def spin_until(self, addr: int, value: int) -> "ProgramBuilder":
        self._encoder.append(SpinUntil(addr, value))
        return self

    def io(self, device: int, value: Operand) -> "ProgramBuilder":
        self._encoder.append(Io(device, value))
        return self

    # -- composite idioms -------------------------------------------------
    def read_modify_write(self, addr: int, addend: int = 1) -> "ProgramBuilder":
        """Unsynchronized increment: load, compute, store reg+addend."""
        self._reg_counter += 1
        reg = f"t{self._reg_counter}"
        encoder = self._encoder
        encoder.load(reg, addr)
        encoder.compute(2)
        encoder.store(addr, RegPlus(reg, addend))
        return self

    def critical_section(
        self, lock_addr: int, body: List[Op]
    ) -> "ProgramBuilder":
        self.acquire(lock_addr)
        for op in body:
            self._encoder.append(op)
        self.release(lock_addr)
        return self

    # -- finalization ----------------------------------------------------
    def ops(self) -> List[Op]:
        return list(self.build())

    def build(self) -> ThreadProgram:
        return ThreadProgram.from_columns(self._encoder.columns(), name=self.name)

    def __len__(self) -> int:
        return len(self._encoder.kinds)


def validate_barriers(programs: Sequence[ThreadProgram]) -> None:
    """Reject barrier declarations that would hang the simulation.

    A :class:`~repro.cpu.isa.Barrier` rendezvous only releases when
    exactly ``participants`` threads arrive at the same generation, so a
    malformed workload deadlocks silently at run time.  Statically
    checkable, so checked here, at :class:`Workload` build time:

    * every occurrence of one ``barrier_id`` must declare the same
      ``participants`` count (the run-time rendezvous enforces this too,
      but only after the simulation is already underway);
    * ``participants`` must be ≥ 1 and ≤ the thread count;
    * the number of threads using a ``barrier_id`` must equal its
      ``participants`` (fewer arrive → generation never fills; more →
      stragglers arrive into a generation that already released);
    * every participating thread must pass the barrier the same number
      of times (unequal generation counts strand the extra arrivals).

    Raises :class:`~repro.errors.ProgramError` with the offending
    barrier id and threads.
    """
    declared: Dict[int, int] = {}
    uses: Dict[int, Dict[int, int]] = {}  # barrier_id -> thread -> count
    for thread, program in enumerate(programs):
        # A barrier is a sync op, so it is always one of the program's
        # side-table ops: the encoded columns need not be decoded.
        for op in program.side_ops.values():
            if not isinstance(op, Barrier):
                continue
            seen = declared.get(op.barrier_id)
            if seen is None:
                declared[op.barrier_id] = op.participants
            elif seen != op.participants:
                raise ProgramError(
                    f"barrier {op.barrier_id}: inconsistent participant "
                    f"counts ({seen} vs {op.participants} in thread {thread})"
                )
            uses.setdefault(op.barrier_id, {})
            uses[op.barrier_id][thread] = uses[op.barrier_id].get(thread, 0) + 1
    for barrier_id, participants in sorted(declared.items()):
        threads = uses[barrier_id]
        if participants < 1:
            raise ProgramError(
                f"barrier {barrier_id}: participants must be >= 1, "
                f"got {participants}"
            )
        if participants > len(programs):
            raise ProgramError(
                f"barrier {barrier_id}: declares {participants} participants "
                f"but the workload has only {len(programs)} threads"
            )
        if len(threads) != participants:
            users = ", ".join(f"t{t}" for t in sorted(threads))
            raise ProgramError(
                f"barrier {barrier_id}: declares {participants} participants "
                f"but {len(threads)} thread(s) use it ({users}) — the "
                "rendezvous would never release correctly"
            )
        counts = {threads[t] for t in threads}
        if len(counts) > 1:
            detail = ", ".join(
                f"t{t}x{threads[t]}" for t in sorted(threads)
            )
            raise ProgramError(
                f"barrier {barrier_id}: unequal generation counts across "
                f"threads ({detail}) — the extra arrivals would hang"
            )


@dataclass
class Workload:
    """A named set of thread programs over a laid-out address space.

    Barrier consistency is validated at construction
    (:func:`validate_barriers`): a workload that would deadlock at a
    rendezvous raises :class:`~repro.errors.ProgramError` here instead
    of hanging the simulation.

    ``programs`` is stored as a tuple.  A workload from
    :func:`repro.harness.runner.build_app_workload` is shared by every
    caller in the process: do not mutate it, and do not allocate into
    its address space.  To change the thread list, copy it with
    ``list(workload.programs)``.
    """

    name: str
    programs: Tuple[ThreadProgram, ...]
    address_space: AddressSpace
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.programs = tuple(self.programs)
        validate_barriers(self.programs)

    @property
    def num_threads(self) -> int:
        return len(self.programs)

    @property
    def total_instructions(self) -> int:
        return sum(p.total_instructions for p in self.programs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Workload {self.name!r} threads={self.num_threads} "
            f"instructions={self.total_instructions}>"
        )

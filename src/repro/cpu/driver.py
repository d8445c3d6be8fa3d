"""The abstract per-processor driver.

A driver walks one thread's program under its consistency model (the
concrete subclass, which supplies the run loop).  The driver owns the
event-loop mechanics — batching, blocking, wake-ups — so the model
subclasses only implement op semantics.

Execution is batched: one simulator event executes ops until the
retirement cursor has advanced by ``batch_cycles`` (or the driver blocks
or finishes).  Batching keeps the Python event count tractable while
preserving cycle-approximate interleaving: cross-processor interactions
(commits, invalidations, squashes) are separate events that interleave
between batches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Optional, TYPE_CHECKING

from repro.cpu.isa import Barrier, Io, LockAcquire, Op, OpKind, SpinUntil
from repro.cpu.thread import ThreadContext
from repro.cpu.window import RetirementWindow
from repro.errors import ProgramError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import Machine


class DriverState(Enum):
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"


class ProcessorDriver(ABC):
    """Walks one thread's program under a consistency model."""

    #: Cursor advance per event before yielding to the event loop.
    batch_cycles: float = 40.0

    def __init__(self, proc: int, thread: ThreadContext, machine: "Machine"):
        # The driver keeps the collaborators it uses, never the machine
        # that owns it: a finished machine then frees by reference count.
        self.proc = proc
        self.thread = thread
        self.sim = machine.sim
        self.stats = machine.stats
        self.io_log = machine.io_log
        self.window = RetirementWindow(
            machine.config.processor, machine.coherence.l1_mshrs[proc]
        )
        self.window.set_l1_round_trip(machine.config.memory.l1.round_trip_cycles)
        self.state = DriverState.RUNNING
        self.finish_time: Optional[float] = None
        self._step_scheduled = False

    # ------------------------------------------------------------------
    # Event-loop mechanics
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first execution batch."""
        self._schedule_step(0.0)

    def _schedule_step(self, at_time: float) -> None:
        if self._step_scheduled:
            return
        self._step_scheduled = True
        when = max(at_time, self.sim.now)
        self.sim.at(when, self._step, label=f"proc{self.proc}.step")

    def _step(self) -> None:
        self._step_scheduled = False
        if self.state is not DriverState.RUNNING:
            return
        self._run_until(self.window.now + self.batch_cycles)
        if self.state is DriverState.RUNNING:
            self._schedule_step(self.window.now)

    @abstractmethod
    def _run_until(self, batch_end: float) -> None:
        """Execute ops until the cursor passes ``batch_end``, blocks, or ends.

        Each model family runs its program's lowered op stream
        (:mod:`repro.cpu.opstream`) in one loop:
        :meth:`repro.consistency.base.BaselineDriver._run_until` for SC,
        RC, SC++ and TSO, :meth:`repro.core.driver.BulkSCDriver._run_until`
        for BulkSC.  Both hand sync ops to :meth:`execute_op`; on a block
        they set ``state`` to ``BLOCKED`` and the model arranges a
        :meth:`wake_retry` or :meth:`wake_advance`.
        """

    def _finish(self) -> None:
        if self.state is DriverState.FINISHED:
            return
        if not self.on_program_end():
            # The model still has in-flight state to drain (e.g. BulkSC's
            # final chunk commit); it calls complete_finish() when done.
            self.state = DriverState.BLOCKED
            return
        self.complete_finish()

    def complete_finish(self) -> None:
        """Mark the driver finished; called once all model state drained."""
        if self.state is DriverState.FINISHED:
            return
        self.state = DriverState.FINISHED
        self.finish_time = max(self.window.now, self.sim.now)

    # ------------------------------------------------------------------
    # Wake-ups (called by models / sync callbacks)
    # ------------------------------------------------------------------
    def wake_retry(self, resume_time: Optional[float] = None) -> None:
        """Unblock and *re-execute* the current op (spin retries)."""
        if self.state is DriverState.FINISHED:
            raise SimulationError(f"proc {self.proc}: wake after finish")
        self.state = DriverState.RUNNING
        when = resume_time if resume_time is not None else self.sim.now
        self.window.stall_until(when)
        self._schedule_step(when)

    def wake_advance(self, resume_time: Optional[float] = None) -> None:
        """Unblock, consume the current op, and continue (barrier release)."""
        if self.state is DriverState.FINISHED:
            raise SimulationError(f"proc {self.proc}: wake after finish")
        self.thread.advance()
        self.state = DriverState.RUNNING
        when = resume_time if resume_time is not None else self.sim.now
        self.window.stall_until(when)
        self._schedule_step(when)

    # ------------------------------------------------------------------
    # Model interface
    # ------------------------------------------------------------------
    def execute_op(self, op: Op) -> bool:
        """Execute one sync op (``K_SLOW``) at the current retirement cursor.

        Dispatches acquire, barrier, flag spin and I/O to the model's
        ``_handle_*`` hook; every other op kind runs in the run loop.
        Returns True to consume the op and continue, False to block on it
        (the model must arrange a later wake-up).
        """
        kind = op.kind
        if kind is OpKind.ACQUIRE:
            assert isinstance(op, LockAcquire)
            return self._handle_acquire(op)
        if kind is OpKind.BARRIER:
            assert isinstance(op, Barrier)
            return self._handle_barrier(op)
        if kind is OpKind.SPIN_UNTIL:
            assert isinstance(op, SpinUntil)
            return self._handle_spin(op)
        if kind is OpKind.IO:
            assert isinstance(op, Io)
            return self._handle_io(op)
        raise ProgramError(f"{kind} runs in the op-stream loop, not execute_op")

    @abstractmethod
    def _handle_acquire(self, op: LockAcquire) -> bool:
        """Acquire a lock; False blocks until it may be retried."""

    @abstractmethod
    def _handle_barrier(self, op: Barrier) -> bool:
        """Arrive at a barrier; False blocks until it releases."""

    @abstractmethod
    def _handle_spin(self, op: SpinUntil) -> bool:
        """Read a flag; False blocks until it may hold the awaited value."""

    @abstractmethod
    def _handle_io(self, op: Io) -> bool:
        """An uncached I/O access, ordered with everything."""

    def _perform_io(self, device: int, value: int) -> None:
        """Log a completed uncached I/O write in the machine's global order."""
        self.io_log.append((self.window.now, self.proc, device, value))
        self.stats.bump("io.operations")
        self.stats.bump(f"proc{self.proc}.io_ops")

    def on_program_end(self) -> bool:
        """Hook: flush model state (store buffers, final chunk commit).

        Returns True when the driver may finish immediately; False when a
        drain is in flight and the model will call :meth:`complete_finish`.
        """
        return True

    def diagnostic_line(self) -> str:
        """This driver's line in the livelock diagnostic dump."""
        return f"proc{self.proc}: {self.state.value}"

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.window.now

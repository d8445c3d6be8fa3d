"""Shared machinery for the baseline (non-chunked) consistency models.

The baselines differ only in *when a store becomes visible* and *what may
retire before completing*; everything else — lock/barrier handling, spin
wake-ups, history recording — is identical and lives here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cpu.driver import ProcessorDriver
from repro.cpu.isa import (
    Barrier,
    Compute,
    Fence,
    Io,
    Load,
    LockAcquire,
    LockRelease,
    Op,
    OpKind,
    SpinUntil,
    Store,
    resolve_operand,
)
from repro.errors import ProgramError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import Machine


class BaselineDriver(ProcessorDriver):
    """Common op dispatch for SC / RC / SC++ drivers."""

    model_name = "baseline"

    def __init__(self, proc: int, thread, machine: "Machine"):
        super().__init__(proc, thread, machine)
        self.coherence = machine.coherence
        self.memory = machine.memory
        self.sync = machine.sync
        self.history = machine.history
        self.address_map = machine.coherence.address_map
        self.stats = machine.stats

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def execute_op(self, op: Op) -> bool:
        kind = op.kind
        if kind is OpKind.COMPUTE:
            assert isinstance(op, Compute)
            self.window.retire_compute(op.count)
            return True
        if kind is OpKind.LOAD:
            assert isinstance(op, Load)
            return self._handle_load(op)
        if kind is OpKind.STORE:
            assert isinstance(op, Store)
            return self._handle_store(op)
        if kind is OpKind.ACQUIRE:
            assert isinstance(op, LockAcquire)
            return self._handle_acquire(op)
        if kind is OpKind.RELEASE:
            assert isinstance(op, LockRelease)
            return self._handle_release(op)
        if kind is OpKind.BARRIER:
            assert isinstance(op, Barrier)
            return self._handle_barrier(op)
        if kind is OpKind.FENCE:
            assert isinstance(op, Fence)
            return self._handle_fence(op)
        if kind is OpKind.SPIN_UNTIL:
            assert isinstance(op, SpinUntil)
            return self._handle_spin(op)
        if kind is OpKind.IO:
            assert isinstance(op, Io)
            return self._handle_io(op)
        raise ProgramError(f"unknown op kind {kind}")

    # ------------------------------------------------------------------
    # Hooks each model implements
    # ------------------------------------------------------------------
    def _handle_load(self, op: Load) -> bool:
        raise NotImplementedError

    def _handle_store(self, op: Store) -> bool:
        raise NotImplementedError

    def _handle_fence(self, op: Fence) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Synchronization, shared across baselines
    # ------------------------------------------------------------------
    def _before_sync_visibility(self) -> None:
        """Make everything older globally visible (release semantics)."""
        # SC and SC++ are already in order; RC overrides to drain its
        # store buffer.

    def _handle_io(self, op: Io) -> bool:
        """Uncached I/O: ordered with everything, never overlapped."""
        self._before_sync_visibility()  # RC drains its store buffer
        value = resolve_operand(op.value, self.thread.registers)
        self.window.stall_until(self.window.now + Io.LATENCY)
        self.machine.perform_io(self.window.now, self.proc, op.device, value)
        self.stats.bump(f"proc{self.proc}.io_ops")
        return True

    def _handle_acquire(self, op: LockAcquire) -> bool:
        """Atomic test-and-set; retries via an address watch when held."""
        line = self.address_map.line_of(op.addr)
        held = self.memory.read(op.addr)
        if held != 0:
            self.stats.bump(f"proc{self.proc}.lock_spins")
            self.sync.watch(
                op.addr,
                self.proc,
                predicate=lambda value: value == 0,
                callback=self._lock_retry,
            )
            return False
        outcome = self.coherence.write(self.proc, line, self.now)
        self.window.retire_memory(outcome.latency, blocking=True, instructions=2)
        self.memory.write(op.addr, 1)
        self.history.record(self.now, self.proc, False, op.addr, 0, self.thread.pc)
        self.history.record(self.now, self.proc, True, op.addr, 1, self.thread.pc)
        self.machine.broadcast_write(self.proc, line, self.now)
        self.sync.notify_write(op.addr, 1)
        return True

    def _lock_retry(self) -> None:
        # Charge the final probe's miss (the lock line was invalidated by
        # the releaser) before re-executing the acquire.
        self.wake_retry(self.sim.now)

    def _handle_release(self, op: LockRelease) -> bool:
        self._before_sync_visibility()
        line = self.address_map.line_of(op.addr)
        outcome = self.coherence.write(self.proc, line, self.now)
        self.window.retire_memory(outcome.latency, blocking=False)
        self.memory.write(op.addr, 0)
        self.history.record(self.now, self.proc, True, op.addr, 0, self.thread.pc)
        self.machine.broadcast_write(self.proc, line, self.now)
        self.sync.notify_write(op.addr, 0)
        return True

    def _handle_barrier(self, op: Barrier) -> bool:
        self._before_sync_visibility()
        self.stats.bump(f"proc{self.proc}.barrier_arrivals")
        self.sync.arrive_barrier(
            op.barrier_id, op.participants, self.proc, self._barrier_released
        )
        return False

    def _barrier_released(self) -> None:
        self.wake_advance(self.sim.now)

    def _handle_spin(self, op: SpinUntil) -> bool:
        line = self.address_map.line_of(op.addr)
        value = self.memory.read(op.addr)
        if value == op.value:
            outcome = self.coherence.read(self.proc, line, self.now)
            self.window.retire_memory(outcome.latency, blocking=True)
            self.history.record(self.now, self.proc, False, op.addr, value, self.thread.pc)
            return True
        self.stats.bump(f"proc{self.proc}.flag_spins")
        self.sync.watch(
            op.addr,
            self.proc,
            predicate=lambda observed: observed == op.value,
            callback=self._lock_retry,
        )
        return False

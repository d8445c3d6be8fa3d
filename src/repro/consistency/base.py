"""Shared machinery for the baseline (non-chunked) consistency models.

The baselines differ only in *when a store becomes visible* and *what may
retire before completing*; everything else — the run loop, the L1 load
hit, lock/barrier handling, spin wake-ups, history recording — is
identical and lives here.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Optional

from repro.cpu.driver import DriverState, ProcessorDriver
from repro.cpu.isa import (
    Barrier,
    Io,
    LockAcquire,
    SpinUntil,
    resolve_operand,
)
from repro.cpu.opstream import K_COMPUTE, K_LOAD, K_RELEASE, K_SLOW, K_STORE, V_LIT
from repro.errors import ProgramError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import Machine


class BaselineDriver(ProcessorDriver):
    """The op-stream run loop and sync ops shared by SC / RC / SC++ / TSO.

    Each model supplies value-taking hooks for what it does differently:
    :meth:`_load` (a load the loop cannot take inline), :meth:`_store`,
    :meth:`_fence` and :meth:`_before_sync_visibility`.  The attributes
    below let the loop take a load inline, hit or miss, exactly when the
    model would charge it as a plain demand read.
    """

    model_name = "baseline"

    #: RC/TSO's store buffer: a load may forward from it.
    _buffer: tuple = ()
    #: SC++'s SHiQ and its capacity: a full SHiQ stalls the next access.
    _shiq: tuple = ()
    _shiq_capacity = 1
    #: SC's prefetched lines that were invalidated before use.
    _invalidated_prefetches: frozenset = frozenset()
    #: Whether loads launch their fetch at decode (SC may turn it off).
    _prefetching = True
    #: SC++ parks every retired load in its SHiQ: the loop then calls the
    #: model's ``_park(line, now)`` after each inline hit.
    parks_loads = False

    def __init__(self, proc: int, thread, machine: "Machine"):
        super().__init__(proc, thread, machine)
        #: Weak: the machine owns its drivers.  A visible store reaches
        #: the other drivers through :meth:`Machine.broadcast_write`, a
        #: driver-to-driver edge no collaborator can stand in for.
        self.machine = weakref.proxy(machine)
        self.coherence = machine.coherence
        self.memory = machine.memory
        self.sync = machine.sync
        self.history = machine.history
        self.address_map = machine.coherence.address_map
        self._l1 = machine.coherence.l1s[proc]
        self._stream = thread.program.op_stream(self.address_map.line_shift)

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def _run_until(self, batch_end: float) -> None:
        """Run the op stream until the cursor passes ``batch_end``.

        ``pc``, ``retired``, the retirement cursor and the window ring are
        held in locals.  Compute bursts and plain loads run inline with
        :class:`~repro.cpu.window.RetirementWindow`'s arithmetic: an L1 hit
        through ``SetAssocCache.lookup``, a miss through one
        :meth:`CoherenceController.read` call and an MSHR admission.
        Stores, fences, releases and loads the model must see (forwarding,
        a full SHiQ, a prefetch refetch) call the model's hooks with the
        cursor written back; sync ops go through :meth:`execute_op`.

        No simulator event fires inside a batch (drains and wake-ups are
        later events), so nothing else mutates the cached state.
        """
        stream = self._stream
        kinds, argv, linev = stream.kinds, stream.args, stream.lines
        regv, vspecv = stream.regs, stream.vspecs
        n = stream.length
        thread = self.thread
        registers = thread.registers
        window = self.window
        ring_times, ring_counts = window.ring_times, window.ring_counts
        iwindow = window.config.instruction_window
        per_instr = window.per_instruction
        l1_rt = window.l1_round_trip
        l1_lookup = self._l1.lookup
        read, mshr_admit = self.coherence.read, window.mshr.admit
        mem_words = self.memory.words
        history = self.history
        record = history.record if history.enabled else None
        proc = self.proc
        load, store, release, fence = (
            self._load, self._store, self._handle_release, self._fence
        )
        buffer, forward = self._buffer, self._forward
        shiq, shiq_capacity = self._shiq, self._shiq_capacity
        refetch = self._invalidated_prefetches
        at_decode = self._prefetching
        park = self._park if self.parks_loads else None
        k_compute, k_load, k_slow = K_COMPUTE, K_LOAD, K_SLOW
        k_store, k_release = K_STORE, K_RELEASE
        pc = thread.pc
        retired = thread.retired_instructions
        cursor = window.retire_cursor
        win_instr = window.ring_instructions
        while True:
            if pc >= n:
                self._spill(pc, retired, cursor, win_instr)
                self._finish()
                return
            kind = kinds[pc]
            if kind == k_compute:
                count = argv[pc]
                cursor += count * per_instr
                ring_times.append(cursor)
                ring_counts.append(count)
                win_instr += count
                while ring_counts and win_instr - ring_counts[0] >= iwindow:
                    ring_times.popleft()
                    win_instr -= ring_counts.popleft()
                retired += count
                pc += 1
                if cursor >= batch_end:
                    break
                continue
            if kind == k_load:
                addr = argv[pc]
                line = linev[pc]
                if (
                    (buffer and forward(addr) is not None)
                    or len(shiq) >= shiq_capacity
                    or line in refetch
                ):
                    window.retire_cursor = cursor
                    window.ring_instructions = win_instr
                    load(addr, line, regv[pc], pc)
                    cursor = window.retire_cursor
                    win_instr = window.ring_instructions
                else:
                    # A blocking retire: retire_memory's arithmetic,
                    # decode_time in its O(1) oldest-entry form, and an
                    # MSHR entry for a miss.
                    cl = l1_lookup(line)
                    latency = l1_rt if cl is not None else read(proc, line)
                    if at_decode:
                        start = 0.0
                        if win_instr >= iwindow:
                            start = (
                                ring_times[0]
                                - (iwindow - (win_instr - ring_counts[0])) * per_instr
                            )
                            if start < 0.0:
                                start = 0.0
                    else:
                        start = cursor
                    if latency > l1_rt:
                        start = mshr_admit(line, latency, start)
                    cursor += per_instr
                    if start + latency > cursor:
                        cursor = start + latency
                    ring_times.append(cursor)
                    ring_counts.append(1)
                    win_instr += 1
                    while ring_counts and win_instr - ring_counts[0] >= iwindow:
                        ring_times.popleft()
                        win_instr -= ring_counts.popleft()
                    if park is not None:
                        park(line, cursor)
                    value = mem_words.get(addr, 0)
                    registers[regv[pc]] = value
                    if record is not None:
                        record(cursor, proc, False, addr, value, pc)
            elif kind == k_slow:
                self._spill(pc, retired, cursor, win_instr)
                if not self.execute_op(thread.program[pc]):
                    # The model will call wake_retry or wake_advance later.
                    self.state = DriverState.BLOCKED
                    return
                thread.advance()
                pc = thread.pc
                retired = thread.retired_instructions
                cursor = window.retire_cursor
                win_instr = window.ring_instructions
                if cursor >= batch_end:
                    break
                continue
            else:  # store, release or fence: the model's hook
                window.retire_cursor = cursor
                window.ring_instructions = win_instr
                if kind == k_store:
                    vspec = vspecv[pc]
                    value = vspec[1]
                    if vspec[0] != V_LIT:
                        value = registers.get(value)
                        if value is None:
                            self._spill(pc, retired, cursor, win_instr)
                            resolve_operand(thread.program[pc].value, registers)  # raises
                            raise ProgramError(f"unresolvable store operand at pc {pc}")
                        value += vspec[2]  # 0 unless V_REGPLUS
                    store(argv[pc], linev[pc], value, pc)
                elif kind == k_release:
                    release(argv[pc], linev[pc], pc)
                else:
                    fence()
                cursor = window.retire_cursor
                win_instr = window.ring_instructions
            retired += 1
            pc += 1
            if cursor >= batch_end:
                break
        self._spill(pc, retired, cursor, win_instr)

    def _spill(self, pc: int, retired: int, cursor: float, win_instr: int) -> None:
        """Write the run loop's cached state back before a call-out or exit."""
        thread = self.thread
        thread.pc = pc
        thread.retired_instructions = retired
        thread.finished = pc >= self._stream.length
        self.window.retire_cursor = cursor
        self.window.ring_instructions = win_instr

    # ------------------------------------------------------------------
    # Hooks each model implements (the window holds the current cursor)
    # ------------------------------------------------------------------
    def _load(self, addr: int, line: int, reg: str, pc: int) -> None:
        """A load the loop could not take inline: it forwards from the
        store buffer, meets a full SHiQ or refetches an invalidated
        prefetch."""
        raise NotImplementedError

    def _store(self, addr: int, line: int, value: int, pc: int) -> None:
        raise NotImplementedError

    def _fence(self) -> None:
        """SC and SC++ already order everything; RC drains its buffer."""

    def _forward(self, word_addr: int) -> Optional[int]:
        """The youngest buffered store's value for ``word_addr`` (RC/TSO)."""
        return None

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
        self._perform_io(op.device, value)
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
        latency, __ = self.coherence.write(self.proc, line)
        now = self.window.retire_memory(latency, blocking=True, instructions=2)
        self.memory.write(op.addr, 1)
        self.history.record(now, self.proc, False, op.addr, 0, self.thread.pc)
        self.history.record(now, self.proc, True, op.addr, 1, self.thread.pc)
        self.machine.broadcast_write(self.proc, line, now)
        self.sync.notify_write(op.addr, 1)
        return True

    def _lock_retry(self) -> None:
        # Charge the final probe's miss (the lock line was invalidated by
        # the releaser) before re-executing the acquire.
        self.wake_retry(self.sim.now)

    def _handle_release(self, addr: int, line: int, pc: int) -> None:
        """A store of 0 with release semantics (``K_RELEASE``)."""
        self._before_sync_visibility()
        latency, __ = self.coherence.write(self.proc, line)
        now = self.window.retire_memory(latency, blocking=False)
        self.memory.write(addr, 0)
        self.history.record(now, self.proc, True, addr, 0, pc)
        self.machine.broadcast_write(self.proc, line, now)
        self.sync.notify_write(addr, 0)

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
            latency = self.coherence.read(self.proc, line)
            now = self.window.retire_memory(latency, blocking=True)
            self.history.record(now, self.proc, False, op.addr, value, self.thread.pc)
            return True
        self.stats.bump(f"proc{self.proc}.flag_spins")
        self.sync.watch(
            op.addr,
            self.proc,
            predicate=lambda observed: observed == op.value,
            callback=self._lock_retry,
        )
        return False

"""The RC baseline: store buffering plus speculation across fences.

Stores retire immediately into a store buffer and become globally
visible when they *drain*.  Under genuine Release Consistency drains
complete **out of order** — a cache-hit store becomes visible before an
earlier miss — so both store-store and store-load order relax; only
fences/releases impose order (they drain the whole buffer).  The
:class:`~repro.consistency.tso.TSODriver` subclass restores FIFO drains,
giving the store-buffer-only (x86-like) model.

Loads forward from the local buffer, otherwise they read committed
memory at execution time and hold retirement until their data returns.
Fences and releases drain the buffer for *semantics* but cost no stall
cycles, modeling the paper's "speculative execution across fences".

Because visibility is deferred, the recorded history can violate the SC
witness check — this is the model that exhibits the SB/MP litmus
outcomes and quantifies the performance headroom BulkSC must match.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.consistency.base import BaselineDriver


class _BufferedStore:
    """One store-buffer entry awaiting drain."""

    __slots__ = ("word_addr", "line_addr", "value", "drain_time", "program_index")

    def __init__(self, word_addr, line_addr, value, drain_time, program_index):
        self.word_addr = word_addr
        self.line_addr = line_addr
        self.value = value
        self.drain_time = drain_time
        self.program_index = program_index


class RCDriver(BaselineDriver):
    """Release consistency with a bounded store buffer."""

    model_name = "RC"

    #: Minimum spacing between consecutive drains (write-port/transfer slot).
    DRAIN_SLOT_CYCLES = 4
    #: FIFO drains (TSO) vs completion-order drains (RC).
    fifo_drains = False

    def __init__(self, proc, thread, machine):
        super().__init__(proc, thread, machine)
        self._buffer: Deque[_BufferedStore] = deque()
        self._capacity = machine.config.processor.store_queue_entries
        self._last_drain_time = 0.0
        self._drain_label = f"proc{proc}.drain"

    # ------------------------------------------------------------------
    # Loads: forward from the buffer (the run loop reads committed memory)
    # ------------------------------------------------------------------
    def _load(self, addr: int, line: int, reg: str, pc: int) -> None:
        """A load that forwards from the store buffer."""
        now = self.window.retire_memory(
            self.coherence.config.memory.l1.round_trip_cycles, blocking=True
        )
        value = self._forward(addr)
        self.thread.write_register(reg, value)
        self.history.record(now, self.proc, False, addr, value, pc)

    def _forward(self, word_addr: int) -> Optional[int]:
        """Most recent buffered store to ``word_addr``, if any."""
        for entry in reversed(self._buffer):
            if entry.word_addr == word_addr:
                return entry.value
        return None

    # ------------------------------------------------------------------
    # Stores: retire into the buffer; visibility at drain
    # ------------------------------------------------------------------
    def _store(self, addr: int, line: int, value: int, pc: int) -> None:
        if len(self._buffer) >= self._capacity:
            # Buffer full: stall until an entry drains.
            earliest = min(e.drain_time for e in self._buffer)
            self.stats.bump(f"proc{self.proc}.store_buffer_stalls")
            self._drain_ready(self.window.stall_until(earliest))
        # The exclusive fetch happens in the background as the entry
        # drains; it is charged to traffic now, not to the critical path.
        latency, __ = self.coherence.write(self.proc, line)
        now = self.window.retire_cursor
        if self.fifo_drains:
            # TSO: drains retire in order; fetches still overlap, so a
            # later drain waits at most a transfer slot on its predecessor.
            drain_time = max(
                now + latency,
                self._last_drain_time + self.DRAIN_SLOT_CYCLES,
            )
            self._last_drain_time = drain_time
        else:
            # RC: a store becomes visible when its own coherence work
            # completes — a hit drains before an earlier miss (the
            # store-store reordering fences exist to tame).
            drain_time = now + latency
        entry = _BufferedStore(addr, line, value, drain_time, pc)
        self._buffer.append(entry)
        self.window.retire_memory(latency, blocking=False, line_addr=line)
        self.sim.at(drain_time, self._drain_event, label=self._drain_label)

    def _drain_event(self) -> None:
        self._drain_ready(self.sim.now)

    def _drain_ready(self, now: float) -> None:
        """Apply every buffered store whose drain time has arrived.

        FIFO mode stops at the first not-yet-due entry (order preserved);
        relaxed mode applies any due entry (completion order).
        """
        if self.fifo_drains:
            while self._buffer and self._buffer[0].drain_time <= now:
                entry = self._buffer.popleft()
                self._apply(entry, entry.drain_time)
            return
        due = [e for e in self._buffer if e.drain_time <= now]
        if not due:
            return
        due.sort(key=lambda e: e.drain_time)
        for entry in due:
            self._buffer.remove(entry)
            self._apply(entry, entry.drain_time)

    def _apply(self, entry: _BufferedStore, visible_at: float) -> None:
        self.memory.write(entry.word_addr, entry.value)
        self.history.record(
            visible_at,
            self.proc,
            True,
            entry.word_addr,
            entry.value,
            entry.program_index,
        )
        self.machine.broadcast_write(self.proc, entry.line_addr, visible_at)
        self.sync.notify_write(entry.word_addr, entry.value)

    # ------------------------------------------------------------------
    # Fences / release semantics: drain for visibility, free of stalls
    # ------------------------------------------------------------------
    def _drain_all(self) -> None:
        while self._buffer:
            entry = self._buffer.popleft()
            self._apply(entry, min(entry.drain_time, self.now))

    def _fence(self) -> None:
        self._drain_all()
        self.stats.bump(f"proc{self.proc}.fences")

    def _before_sync_visibility(self) -> None:
        self._drain_all()

    def on_program_end(self) -> bool:
        self._drain_all()
        return True

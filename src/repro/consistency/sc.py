"""The SC baseline: in-order visibility with prefetch optimizations.

Straightforward SC requires each memory operation to complete before the
next one issues.  Following Gharachorloo et al. [12] — and matching the
paper's "SC" configuration — the model keeps that retirement rule but

* issues *read prefetches* and *exclusive write prefetches* as soon as an
  access is decoded (up to ``instruction_window`` instructions early), so
  part of each miss is hidden, and
* pays the full penalty again when the prefetched line is invalidated
  before the access retires (the speculative-load rollback case).

Visibility is at execution: loads and stores touch the global memory
image in program order, so the recorded history is trivially SC.
"""

from __future__ import annotations

from typing import Set

from repro.consistency.base import BaselineDriver


class SCDriver(BaselineDriver):
    """SC with read/exclusive prefetching (paper's SC configuration)."""

    model_name = "SC"

    def __init__(self, proc, thread, machine):
        super().__init__(proc, thread, machine)
        self._prefetching = machine.config.baseline.sc_prefetching
        self._store_exposure = machine.config.baseline.sc_store_exposure_fraction
        # Lines prefetched but invalidated before retirement: next access
        # pays the full miss again (models the rollback/refetch), so the
        # run loop never takes it as an inline hit.
        self._invalidated_prefetches: Set[int] = set()

    # ------------------------------------------------------------------
    def _load(self, addr: int, line: int, reg: str, pc: int) -> None:
        """A load of a prefetched line that was invalidated: a refetch."""
        latency = self._effective_latency(line, self.coherence.read(self.proc, line))
        now = self.window.retire_memory(
            latency,
            blocking=True,
            fetch_at_decode=self._prefetching,
            line_addr=line,
        )
        value = self.memory.read(addr)
        self.thread.write_register(reg, value)
        self.history.record(now, self.proc, False, addr, value, pc)

    def _store(self, addr: int, line: int, value: int, pc: int) -> None:
        latency, exposed = self.coherence.write(self.proc, line)
        latency = self._effective_latency(line, latency)
        # A store's *global visibility* work cannot be prefetched away:
        # invalidations start at retirement, and part of the fetch is
        # re-exposed when the prefetched line was stolen or the prefetch
        # launched late (requirement (i) of the straightforward SC
        # implementation, softened by [Gharachorloo'91]).
        l1_rt = self.coherence.config.memory.l1.round_trip_cycles
        if latency > l1_rt:
            exposed += self._store_exposure * (latency - l1_rt)
        now = self.window.retire_memory(
            latency,
            blocking=True,
            fetch_at_decode=self._prefetching,
            line_addr=line,
            unhideable=exposed,
        )
        self.memory.write(addr, value)
        self.history.record(now, self.proc, True, addr, value, pc)
        self.machine.broadcast_write(self.proc, line, now)
        self.sync.notify_write(addr, value)

    # ------------------------------------------------------------------
    def _effective_latency(self, line: int, latency: float) -> float:
        """Charge a refetch when a prefetched line was invalidated."""
        if line in self._invalidated_prefetches:
            self._invalidated_prefetches.discard(line)
            self.stats.bump(f"proc{self.proc}.sc_prefetch_invalidations")
            return latency + self.coherence.config.memory.l2.round_trip_cycles
        return latency

    def on_remote_write(self, line_addr: int, time: float) -> None:
        """A remote store invalidated one of our lines (prefetch rollback)."""
        if self._prefetching and self.coherence.l1s[self.proc].probe(line_addr) is None:
            self._invalidated_prefetches.add(line_addr)

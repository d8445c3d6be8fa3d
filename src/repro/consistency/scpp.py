"""The SC++ baseline [Gniady, Falsafi, Vijaykumar — "Is SC + ILP = RC?"].

SC++ retires loads and stores speculatively into a Speculative History
Queue (SHiQ) so its *timing* matches RC, while *semantics* remain SC: an
incoming coherence action that hits an address in the SHiQ rolls the
processor back to the offending instruction and replays.

Model:

* Functionally, operations apply to the global image in program order at
  execution (SC++ is SC, so this is exact — rollbacks in the modeled
  hardware never let a wrong value become architectural).
* Timing-wise, stores are wait-free (they enter the SHiQ) and loads hold
  retirement like RC.  Speculatively retired accesses park in the SHiQ
  until the last store that preceded them completes; a remote write to a
  parked line charges a squash-and-replay penalty proportional to the
  speculative instructions discarded.
* A full SHiQ forces SC-style blocking retirement — with the paper's 2K
  entries this is rare, which is why SC++ tracks RC so closely.
* **SC++lite** (``BaselineConfig.scpp_lite``) places the SHiQ in the
  memory hierarchy [Gniady'02], as the paper describes: capacity stalls
  disappear but replays stream history through the caches, multiplying
  the rollback cost.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.consistency.base import BaselineDriver


class SCPPDriver(BaselineDriver):
    """SC++ with a bounded SHiQ and replay-on-conflict."""

    model_name = "SC++"
    parks_loads = True

    def __init__(self, proc, thread, machine):
        super().__init__(proc, thread, machine)
        baseline = machine.config.baseline
        if baseline.scpp_lite:
            # SC++lite: memory-resident SHiQ — effectively unbounded, but
            # rollback streams the history through the cache hierarchy.
            self._shiq_capacity = 1 << 30
            self._replay_cost = (
                baseline.scpp_replay_cost_per_instruction
                * baseline.scpp_lite_replay_multiplier
            )
        else:
            self._shiq_capacity = baseline.shiq_entries
            self._replay_cost = baseline.scpp_replay_cost_per_instruction
        # Entries: (line_addr, expire_time, instructions_behind).  An entry
        # leaves speculation when every store it bypassed has completed.
        self._shiq: Deque[Tuple[int, float, int]] = deque()
        self._last_store_completion = 0.0
        self.squashes = 0
        self.replayed_instructions = 0

    # ------------------------------------------------------------------
    def _expire(self, now: float) -> None:
        while self._shiq and self._shiq[0][1] <= now:
            self._shiq.popleft()

    def _shiq_full_stall(self) -> None:
        if len(self._shiq) >= self._shiq_capacity:
            self.stats.bump(f"proc{self.proc}.shiq_full_stalls")
            self.window.stall_until(self._shiq[0][1])
            self._expire(self.window.now)

    def _park(self, line: int, now: float) -> None:
        """Record a speculatively retired access in the SHiQ."""
        self._expire(now)
        if self._last_store_completion > now:
            self._shiq.append((line, self._last_store_completion, 1))

    # ------------------------------------------------------------------
    def _load(self, addr: int, line: int, reg: str, pc: int) -> None:
        """A load that meets a full SHiQ."""
        self._shiq_full_stall()
        latency = self.coherence.read(self.proc, line)
        now = self.window.retire_memory(latency, blocking=True, line_addr=line)
        self._park(line, now)
        value = self.memory.read(addr)
        self.thread.write_register(reg, value)
        self.history.record(now, self.proc, False, addr, value, pc)

    def _store(self, addr: int, line: int, value: int, pc: int) -> None:
        self._shiq_full_stall()
        latency, __ = self.coherence.write(self.proc, line)
        # Wait-free store: retires into the SHiQ immediately.
        now = self.window.retire_memory(latency, blocking=False, line_addr=line)
        completion = now + latency
        if completion > self._last_store_completion:
            self._last_store_completion = completion
        self._park(line, now)
        self.memory.write(addr, value)
        self.history.record(now, self.proc, True, addr, value, pc)
        self.machine.broadcast_write(self.proc, line, now)
        self.sync.notify_write(addr, value)

    # ------------------------------------------------------------------
    def on_remote_write(self, line_addr: int, time: float) -> None:
        """Incoming coherence action: squash if it hits the SHiQ."""
        self._expire(time)
        if not self._shiq:
            return
        if any(entry[0] == line_addr for entry in self._shiq):
            discarded = sum(entry[2] for entry in self._shiq)
            penalty = discarded * self._replay_cost
            self.squashes += 1
            self.replayed_instructions += discarded
            self.stats.bump(f"proc{self.proc}.scpp_squashes")
            self.stats.bump(f"proc{self.proc}.scpp_replayed", discarded)
            self.window.stall_until(max(time, self.window.now) + penalty)
            self._shiq.clear()

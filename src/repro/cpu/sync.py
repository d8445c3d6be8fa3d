"""Cross-processor synchronization plumbing.

The simulator needs two rendezvous services that are *not* consistency
semantics (those live in the models) but pure wake-up mechanics:

* **Barriers** — count arrivals per (barrier id, generation); when the
  last participant arrives, every waiter's callback is scheduled.
* **Address watches** — a waiter spinning on a flag or lock registers a
  predicate on a word; whenever a model makes a write to that word
  *visible* it calls :meth:`notify_write`, and satisfied watchers are
  woken.  This gives spin loops exact wake-up times without simulating
  millions of poll iterations; the model charges the re-read latency on
  wake-up, which is the same cost a real spinner pays on its final probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.engine.simulator import Simulator
from repro.errors import SimulationError


@dataclass
class _Watch:
    proc: int
    predicate: Callable[[int], bool]
    callback: Callable[[], None]


@dataclass
class _BarrierState:
    participants: int
    arrived: int = 0
    waiters: List[Callable[[], None]] = field(default_factory=list)


class SyncManager:
    """Barrier arrival counting and address-watch wake-ups."""

    #: Cycles between the releasing event and a waiter observing it; models
    #: the coherence round trip of the final probe.
    WAKE_LATENCY = 20

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._barriers: Dict[Tuple[int, int], _BarrierState] = {}
        self._barrier_generation: Dict[int, int] = {}
        self._watches: Dict[int, List[_Watch]] = {}
        self.barrier_waits = 0
        self.watch_wakeups = 0

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def arrive_barrier(
        self,
        barrier_id: int,
        participants: int,
        proc: int,
        on_release: Callable[[], None],
    ) -> None:
        """Arrive at a barrier; ``on_release`` fires when all have arrived.

        Barriers are reusable: each full round advances the generation.
        """
        generation = self._barrier_generation.get(barrier_id, 0)
        key = (barrier_id, generation)
        state = self._barriers.get(key)
        if state is None:
            state = self._barriers[key] = _BarrierState(participants)
        elif state.participants != participants:
            raise SimulationError(
                f"barrier {barrier_id}: inconsistent participant counts "
                f"({state.participants} vs {participants})"
            )
        state.arrived += 1
        state.waiters.append(on_release)
        self.barrier_waits += 1
        if state.arrived >= state.participants:
            self._barrier_generation[barrier_id] = generation + 1
            del self._barriers[key]
            for waiter in state.waiters:
                self.sim.after(self.WAKE_LATENCY, waiter, label=f"barrier{barrier_id}")

    # ------------------------------------------------------------------
    # Address watches (spin wake-ups)
    # ------------------------------------------------------------------
    def watch(
        self,
        word_addr: int,
        proc: int,
        predicate: Callable[[int], bool],
        callback: Callable[[], None],
    ) -> None:
        """Wake ``callback`` when a visible write to ``word_addr`` satisfies
        ``predicate(new_value)``."""
        self._watches.setdefault(word_addr, []).append(
            _Watch(proc, predicate, callback)
        )

    def notify_write(self, word_addr: int, new_value: int) -> None:
        """A model made a write to ``word_addr`` visible; wake matchers."""
        watches = self._watches.get(word_addr)
        if not watches:
            return
        remaining: List[_Watch] = []
        for watch in watches:
            if watch.predicate(new_value):
                self.watch_wakeups += 1
                self.sim.after(
                    self.WAKE_LATENCY, watch.callback, label=f"wake@{word_addr:#x}"
                )
            else:
                remaining.append(watch)
        if remaining:
            self._watches[word_addr] = remaining
        else:
            del self._watches[word_addr]

    def waiting_on(self, word_addr: int) -> int:
        return len(self._watches.get(word_addr, ()))

    def any_waiters(self) -> bool:
        return bool(self._watches) or bool(self._barriers)

    def clear(self) -> None:
        """Drop every waiter: a run that has returned wakes no one."""
        self._watches.clear()
        self._barriers.clear()

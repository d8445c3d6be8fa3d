"""The simulation kernel: a clock plus an event run loop.

Subsystems register work by scheduling events; the simulator advances the
clock to each event in deterministic order.  The kernel also owns the
:class:`~repro.engine.stats.StatsRegistry` so every component hangs its
counters off one tree.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Any, Callable, Optional, Sequence

from repro.engine.event import Event, EventQueue
from repro.engine.rng import DeterministicRng
from repro.engine.stats import StatsRegistry
from repro.errors import LivelockError, SimulationError


class Simulator:
    """Discrete-event simulation kernel.

    Attributes:
        now: Current simulated cycle.
        stats: Root statistics registry shared by all components.
        rng: Deterministic random source for the whole simulation.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.queue = EventQueue()
        self.stats = StatsRegistry("sim")
        self.rng = DeterministicRng(seed)
        self._events_fired = 0
        self._stop_requested = False
        self._exported_compactions = 0
        self._exported_cancelled = 0
        self._end_hooks: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at an absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {time} before now={self.now}"
            )
        return self.queue.push(Event(time, action, priority, label))

    def after(
        self,
        delay: float,
        action: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        return self.at(self.now + delay, action, priority, label)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the run loop to halt after the current event."""
        self._stop_requested = True

    def add_end_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback invoked once when :meth:`run` finishes."""
        self._end_hooks.append(hook)

    def _livelock_report(
        self, max_events: int, diagnostics: Sequence[Callable[[], str]]
    ) -> str:
        """Describe what the simulation was doing when the budget blew."""
        lines = [
            f"exceeded max_events={max_events} at cycle {self.now}; likely livelock",
            f"rng draws consumed: {self.rng.draws}",
        ]
        pending = list(self.queue.live_events())
        if pending:
            # Group labels with instance numbers normalized away so
            # "commit17.decide" and "commit41.decide" count together.
            groups = Counter(
                re.sub(r"\d+", "#", e.label) or "<unlabelled>" for e in pending
            )
            lines.append(f"pending events: {len(pending)}")
            for label, count in groups.most_common(8):
                lines.append(f"  {count:>6} × {label}")
        else:
            lines.append("pending events: none (budget consumed by fired events)")
        for provider in diagnostics:
            try:
                text = provider()
            except Exception as exc:  # diagnostics must never mask the abort
                text = f"<diagnostic provider failed: {exc!r}>"
            if text:
                lines.append(text.rstrip())
        return "\n".join(lines)

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 50_000_000,
        diagnostics: Sequence[Callable[[], str]] = (),
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or stop().

        Args:
            until: Optional cycle bound (inclusive); events after it stay
                queued.
            max_events: Safety valve against runaway simulations.
            diagnostics: Callbacks contributing lines to the livelock
                dump, invoked only when ``max_events`` trips, so they may
                be arbitrarily expensive.  Each returns a short
                multi-line description of its component's state (e.g.
                per-driver chunk phases).  They are passed per run, not
                kept, so an owner can describe itself without the
                simulator holding it.

        Returns:
            The final simulated time.
        """
        self._stop_requested = False
        while self.queue:
            if self._stop_requested:
                break
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                break
            event = self.queue.pop()
            assert event is not None
            self.now = event.time
            self._events_fired += 1
            if self._events_fired > max_events:
                raise LivelockError(self._livelock_report(max_events, diagnostics))
            event.action()
        self._export_queue_stats()
        for hook in self._end_hooks:
            hook()
        return self.now

    def _export_queue_stats(self) -> None:
        """Record queue compaction activity as deterministic counters.

        Compactions depend only on the simulated cancel pattern, so they
        are safe in the deterministic snapshot.  The counters are created
        lazily — runs that never compact keep their snapshot unchanged.
        """
        delta = self.queue.compactions - self._exported_compactions
        if delta:
            self.stats.bump("queue.compactions", delta)
            self._exported_compactions = self.queue.compactions
        delta = self.queue.cancelled_live - self._exported_cancelled
        if delta or self._exported_cancelled:
            self.stats.bump("queue.cancelled_live", delta)
            self._exported_cancelled = self.queue.cancelled_live

    @property
    def events_fired(self) -> int:
        return self._events_fired

"""Miss Status Holding Registers.

An :class:`MshrFile` bounds the number of outstanding line misses a cache
can have in flight.  Requests to a line that is already in flight merge
into the existing entry (secondary misses).  When the file is full, the
miss must stall until the earliest entry completes — this is one of the
levers that differentiates the consistency models' overlap behaviour.
:meth:`admit` is the one entry point: it does the stall and the
allocation for one miss in a single expiry pass.
"""

from __future__ import annotations

from typing import Dict


class MshrFile:
    """Tracks outstanding misses as ``line_addr -> completion_time``."""

    def __init__(self, capacity: int, name: str = "mshr"):
        if capacity < 1:
            raise ValueError("MSHR capacity must be at least 1")
        self.capacity = capacity
        self.name = name
        self._outstanding: Dict[int, float] = {}
        # Earliest completion among outstanding entries; while ``now`` is
        # below it no entry can expire, so _expire is O(1) on the hot path.
        self._next_expiry = float("inf")
        self.primary_misses = 0
        self.secondary_misses = 0
        self.full_stalls = 0

    def _expire(self, now: float) -> None:
        if now < self._next_expiry:
            return
        outstanding = self._outstanding
        done = [addr for addr, t in outstanding.items() if t <= now]
        for addr in done:
            del outstanding[addr]
        self._next_expiry = min(outstanding.values(), default=float("inf"))

    def admit(self, line_addr: int, latency: float, start: float) -> float:
        """Issue a miss at ``start``; returns when its fetch really starts.

        A full file delays the fetch to the earliest completion (a full
        stall).  The miss then merges into an in-flight entry for its line
        or allocates one completing ``latency`` after the fetch starts.
        """
        outstanding = self._outstanding
        self._expire(start)
        if len(outstanding) >= self.capacity:
            self.full_stalls += 1
            start = self._next_expiry  # the earliest completion
            self._expire(start)
        if line_addr in outstanding:
            self.secondary_misses += 1
            return start
        self.primary_misses += 1
        completion = start + latency
        outstanding[line_addr] = completion
        if completion < self._next_expiry:
            self._next_expiry = completion
        return start

    def clear(self) -> None:
        self._outstanding.clear()
        self._next_expiry = float("inf")

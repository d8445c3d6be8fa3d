"""Set-associative cache tag arrays with LRU replacement.

The cache stores *tags and state only* — data values live in the global
memory image and in speculative overlays (see :mod:`repro.memory`).  That
matches the BulkSC property that tag/data arrays are unmodified and
unaware of speculation.

Victim selection accepts a ``pinned`` predicate so the BDM can prevent the
displacement of speculatively-written lines (membership in any active W
signature).  When every way of a set is pinned, insertion fails and the
caller (the chunking policy) must close the chunk — the paper's "chunk
also finishes when its data is about to overflow a cache set".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterator, Optional

from repro.params import CacheGeometry


class LineState(Enum):
    """MESI states (baselines); BulkSC uses only SHARED/MODIFIED."""

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"

    @property
    def is_dirty(self) -> bool:
        return self is LineState.MODIFIED


@dataclass(slots=True)
class CacheLine:
    """One tag-array entry."""

    line_addr: int
    state: LineState
    lru_stamp: int = 0

    @property
    def dirty(self) -> bool:
        return self.state.is_dirty


@dataclass(frozen=True, slots=True)
class EvictionResult:
    """Outcome of inserting a line into a full set."""

    inserted: bool
    victim: Optional[CacheLine] = None  # evicted line needing handling


# Victimless outcomes are shared: a fill allocates only its CacheLine.
_INSERTED = EvictionResult(inserted=True)
_OVERFLOWED = EvictionResult(inserted=False)


class SetAssocCache:
    """An LRU set-associative tag array."""

    def __init__(self, geometry: CacheGeometry, name: str = "cache"):
        geometry.validate(name)
        self.geometry = geometry
        self.name = name
        self.num_sets = geometry.num_sets
        self.associativity = geometry.associativity
        # ``sets``, ``set_mask`` and ``lru_clock`` are public so the BulkSC
        # run loop can probe and stamp lines inline (repro.core.driver).
        self.set_mask = self.num_sets - 1
        #: sets[i] maps line_addr -> CacheLine for lines resident in set i.
        #: Sets are materialized lazily on first insert: simulations touch a
        #: tiny fraction of the (up to 4096) sets, and eagerly allocating
        #: one dict per set dominated machine-construction time in the
        #: commit-heavy litmus benchmark.
        self.sets: Dict[int, Dict[int, CacheLine]] = {}
        #: Source of LRU stamps; the highest stamp is the most recent use.
        self.lru_clock = itertools.count()
        #: Lines that left the array, by :meth:`invalidate` or as an
        #: :meth:`insert` victim; lets holders of CacheLine references
        #: notice that one may have gone.
        self.departures = 0

    # -- geometry ------------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        return line_addr & self.set_mask

    # -- lookup --------------------------------------------------------------
    def lookup(self, line_addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line, updating LRU, or ``None`` on miss."""
        cache_set = self.sets.get(line_addr & self.set_mask)
        line = cache_set.get(line_addr) if cache_set is not None else None
        if line is not None and touch:
            line.lru_stamp = next(self.lru_clock)
        return line

    def probe(self, line_addr: int) -> Optional[CacheLine]:
        """Lookup without LRU update (snoops)."""
        cache_set = self.sets.get(line_addr & self.set_mask)
        return cache_set.get(line_addr) if cache_set is not None else None

    def contains(self, line_addr: int) -> bool:
        cache_set = self.sets.get(line_addr & self.set_mask)
        return cache_set is not None and line_addr in cache_set

    # -- insertion / eviction ---------------------------------------------------
    def insert(
        self,
        line_addr: int,
        state: LineState,
        pinned: Optional[Callable[[int], bool]] = None,
    ) -> EvictionResult:
        """Insert ``line_addr``, evicting LRU if the set is full.

        Args:
            state: Initial coherence state of the new line.
            pinned: Optional predicate; lines for which it returns True are
                not eligible victims (speculatively-written lines).

        Returns:
            An :class:`EvictionResult`; ``inserted`` is False when every
            candidate victim is pinned (set about to overflow).  Only a
            result that carries a victim is newly allocated.
        """
        index = line_addr & self.set_mask
        cache_set = self.sets.get(index)
        if cache_set is None:
            cache_set = self.sets[index] = {}
        existing = cache_set.get(line_addr)
        if existing is not None:
            existing.state = state
            existing.lru_stamp = next(self.lru_clock)
            return _INSERTED
        if len(cache_set) < self.associativity:
            cache_set[line_addr] = CacheLine(line_addr, state, next(self.lru_clock))
            return _INSERTED
        victim = self._pick_victim(cache_set, pinned)
        if victim is None:
            return _OVERFLOWED
        del cache_set[victim.line_addr]
        self.departures += 1
        cache_set[line_addr] = CacheLine(line_addr, state, next(self.lru_clock))
        return EvictionResult(inserted=True, victim=victim)

    def _pick_victim(
        self,
        cache_set: Dict[int, CacheLine],
        pinned: Optional[Callable[[int], bool]],
    ) -> Optional[CacheLine]:
        candidates = (
            line
            for line in cache_set.values()
            if pinned is None or not pinned(line.line_addr)
        )
        return min(candidates, key=lambda line: line.lru_stamp, default=None)

    def would_overflow(
        self, line_addr: int, pinned: Callable[[int], bool]
    ) -> bool:
        """True if inserting ``line_addr`` would find no evictable victim."""
        cache_set = self.sets.get(line_addr & self.set_mask)
        if cache_set is None:
            return False
        if line_addr in cache_set or len(cache_set) < self.associativity:
            return False
        return all(pinned(line.line_addr) for line in cache_set.values())

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Remove a line (coherence invalidation); returns it if present."""
        cache_set = self.sets.get(line_addr & self.set_mask)
        line = cache_set.pop(line_addr, None) if cache_set is not None else None
        if line is not None:
            self.departures += 1
        return line

    def set_state(self, line_addr: int, state: LineState) -> None:
        line = self.probe(line_addr)
        if line is not None:
            line.state = state

    # -- iteration ---------------------------------------------------------------
    def lines_in_set(self, set_index: int) -> Iterator[CacheLine]:
        cache_set = self.sets.get(set_index)
        return iter(cache_set.values()) if cache_set is not None else iter(())

    def all_lines(self) -> Iterator[CacheLine]:
        # Set-index order, so iteration is independent of touch order.
        for set_index in sorted(self.sets):
            yield from self.sets[set_index].values()

    def resident_count(self) -> int:
        return sum(len(cache_set) for cache_set in self.sets.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SetAssocCache {self.name} {self.num_sets}x{self.associativity} "
            f"resident={self.resident_count()}>"
        )

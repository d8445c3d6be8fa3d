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


@dataclass
class CacheLine:
    """One tag-array entry."""

    line_addr: int
    state: LineState
    lru_stamp: int = 0

    @property
    def dirty(self) -> bool:
        return self.state.is_dirty


@dataclass
class EvictionResult:
    """Outcome of inserting a line into a full set."""

    inserted: bool
    victim: Optional[CacheLine] = None  # evicted line needing handling


class SetAssocCache:
    """An LRU set-associative tag array."""

    def __init__(self, geometry: CacheGeometry, name: str = "cache"):
        geometry.validate(name)
        self.geometry = geometry
        self.name = name
        self.num_sets = geometry.num_sets
        self.associativity = geometry.associativity
        self._set_mask = self.num_sets - 1
        # _sets[i] maps line_addr -> CacheLine for lines resident in set i.
        # Sets are materialized lazily on first insert: simulations touch a
        # tiny fraction of the (up to 4096) sets, and eagerly allocating one
        # dict per set dominated machine-construction time in the
        # commit-heavy litmus benchmark.
        self._sets: Dict[int, Dict[int, CacheLine]] = {}
        self._lru_clock = itertools.count()
        self.hits = 0
        self.misses = 0
        #: Lines removed by :meth:`invalidate`; lets holders of CacheLine
        #: references notice that one may have left the array.
        self.invalidations = 0

    # -- geometry ------------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    # -- lookup --------------------------------------------------------------
    def lookup(self, line_addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line, updating LRU, or ``None`` on miss."""
        cache_set = self._sets.get(line_addr & self._set_mask)
        line = cache_set.get(line_addr) if cache_set is not None else None
        if line is not None:
            if touch:
                line.lru_stamp = next(self._lru_clock)
            self.hits += 1
            return line
        self.misses += 1
        return None

    def hit(self, line_addr: int) -> Optional[CacheLine]:
        """:meth:`lookup`'s hit side alone: the run loops' inline L1 hit.

        A resident line gets its LRU stamp and counts a hit; a miss
        returns ``None`` and counts nothing, because the caller's slow path
        then performs (and counts) the real access.
        """
        cache_set = self._sets.get(line_addr & self._set_mask)
        line = cache_set.get(line_addr) if cache_set is not None else None
        if line is not None:
            line.lru_stamp = next(self._lru_clock)
            self.hits += 1
        return line

    def probe(self, line_addr: int) -> Optional[CacheLine]:
        """Lookup without LRU update or hit/miss accounting (snoops)."""
        cache_set = self._sets.get(line_addr & self._set_mask)
        return cache_set.get(line_addr) if cache_set is not None else None

    def contains(self, line_addr: int) -> bool:
        cache_set = self._sets.get(line_addr & self._set_mask)
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
            candidate victim is pinned (set about to overflow).
        """
        index = self.set_index(line_addr)
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        existing = cache_set.get(line_addr)
        if existing is not None:
            existing.state = state
            existing.lru_stamp = next(self._lru_clock)
            return EvictionResult(inserted=True)
        victim = None
        if len(cache_set) >= self.associativity:
            victim = self._pick_victim(cache_set, pinned)
            if victim is None:
                return EvictionResult(inserted=False)
            del cache_set[victim.line_addr]
        line = CacheLine(line_addr, state, next(self._lru_clock))
        cache_set[line_addr] = line
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
        cache_set = self._sets.get(self.set_index(line_addr))
        if cache_set is None:
            return False
        if line_addr in cache_set or len(cache_set) < self.associativity:
            return False
        return all(pinned(line.line_addr) for line in cache_set.values())

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Remove a line (coherence invalidation); returns it if present."""
        cache_set = self._sets.get(line_addr & self._set_mask)
        line = cache_set.pop(line_addr, None) if cache_set is not None else None
        if line is not None:
            self.invalidations += 1
        return line

    def set_state(self, line_addr: int, state: LineState) -> None:
        line = self.probe(line_addr)
        if line is not None:
            line.state = state

    # -- iteration ---------------------------------------------------------------
    def lines_in_set(self, set_index: int) -> Iterator[CacheLine]:
        cache_set = self._sets.get(set_index)
        return iter(cache_set.values()) if cache_set is not None else iter(())

    def all_lines(self) -> Iterator[CacheLine]:
        # Set-index order, so iteration is independent of touch order.
        for set_index in sorted(self._sets):
            yield from self._sets[set_index].values()

    def resident_count(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SetAssocCache {self.name} {self.num_sets}x{self.associativity} "
            f"resident={self.resident_count()}>"
        )

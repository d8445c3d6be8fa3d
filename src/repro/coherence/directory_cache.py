"""Bounded directory storage (paper Section 4.3.3).

A :class:`DirectoryCache` wraps the full-map :class:`DirectoryModule`
storage with a set-associative capacity bound.  The paper prefers
directory caches for BulkSC because they limit signature-expansion false
positives *by construction*: expansion can only select entries that
actually exist.

Displacing an entry is not silent: the displaced line must be invalidated
from every sharer cache and — because running chunks may have accessed it
— the directory builds the line's address into a one-line signature and
sends it to the sharers for bulk disambiguation.  That callback is
supplied by the owning system via ``on_displace``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.coherence.directory import DirectoryEntry, DirectoryModule


class DirectoryCache(DirectoryModule):
    """A :class:`DirectoryModule` with bounded, set-associative storage."""

    def __init__(
        self,
        index: int,
        num_processors: int,
        num_sets: int = 1024,
        associativity: int = 8,
        on_displace: Optional[Callable[[DirectoryEntry], None]] = None,
    ):
        super().__init__(index, num_processors)
        if num_sets & (num_sets - 1):
            raise ValueError("directory cache sets must be a power of two")
        self.num_sets = num_sets
        self.associativity = associativity
        self.on_displace = on_displace
        self._lru_clock = 0
        self._lru: Dict[int, int] = {}
        self._set_population: Dict[int, int] = {}
        self.displacements = 0

    def _set_of(self, line_addr: int) -> int:
        return line_addr & (self.num_sets - 1)

    def _touch(self, line_addr: int) -> None:
        self._lru_clock += 1
        self._lru[line_addr] = self._lru_clock

    def entry(self, line_addr: int) -> DirectoryEntry:
        existing = self._entries.get(line_addr)
        if existing is not None:
            self._touch(line_addr)
            return existing
        self._make_room(line_addr)
        entry = super().entry(line_addr)
        set_index = self._set_of(line_addr)
        self._set_population[set_index] = self._set_population.get(set_index, 0) + 1
        self._touch(line_addr)
        return entry

    def _make_room(self, line_addr: int) -> None:
        set_index = self._set_of(line_addr)
        if self._set_population.get(set_index, 0) < self.associativity:
            return
        victim_addr = min(
            (
                addr
                for addr in self._entries
                if self._set_of(addr) == set_index
            ),
            key=lambda addr: self._lru[addr],
        )
        victim = DirectoryModule.drop(self, victim_addr)  # keeps buckets in sync
        self._lru.pop(victim_addr, None)
        self._set_population[set_index] -= 1
        self.displacements += 1
        if self.on_displace is not None and victim is not None:
            self.on_displace(victim)

    def drop(self, line_addr: int) -> Optional[DirectoryEntry]:
        entry = super().drop(line_addr)
        if entry is not None:
            self._lru.pop(line_addr, None)
            set_index = self._set_of(line_addr)
            self._set_population[set_index] = max(
                0, self._set_population.get(set_index, 0) - 1
            )
        return entry

    def entries_in_sets(self, set_bitmap: int, num_sets: int) -> List[DirectoryEntry]:
        # Insertion order at every geometry: expansion selects only
        # entries that exist (Section 4.3.3).
        return self._scan_sets(set_bitmap, num_sets)

    def entries(self) -> Iterator[DirectoryEntry]:
        return iter(list(self._entries.values()))

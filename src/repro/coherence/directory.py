"""Full bit-vector directory modules (paper Section 4.3, ref [22]).

Each :class:`DirectoryModule` owns an interleaved slice of the line
address space.  An entry records the sharer set and, when some L1 holds
the line dirty (non-speculatively), the owner.  Entries are allocated on
first reference; the default "full-map" mode never displaces them, while
:class:`~repro.coherence.directory_cache.DirectoryCache` bounds capacity
and triggers the displacement protocol of Section 4.3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.errors import ProtocolError
from repro.signatures.base import set_indices


@dataclass(slots=True)
class DirectoryEntry:
    """Sharing state of one line.

    ``dirty`` with ``owner=p`` means processor p's L1 holds the line in a
    modified, *non-speculative* state.  BulkSC can create "false owner"
    states (Table 1 case 2 applied to an aliased line); the protocol
    recovers from these exactly as MESI recovers from a silent Exclusive
    eviction, via :meth:`DirectoryModule.resolve_false_owner`.
    """

    line_addr: int
    sharers: Set[int] = field(default_factory=set)
    dirty: bool = False
    owner: Optional[int] = None

    def make_owner(self, proc: int) -> None:
        self.dirty = True
        self.owner = proc
        self.sharers = {proc}

    def clear_owner(self) -> None:
        self.dirty = False
        self.owner = None


class DirectoryModule:
    """One interleaved directory module with unbounded (full-map) storage.

    Entries are additionally bucketed by ``index_sets`` logical sets (the
    decode-δ geometry of the DirBDM), so signature expansion visits only
    the candidate sets instead of scanning the whole structure — the same
    work the hardware's set-indexed lookup does.
    """

    #: Logical set count used for expansion bucketing; the DirBDM
    #: decodes (δ) into this geometry.
    INDEX_SETS = 4096

    def __init__(self, index: int, num_processors: int):
        self.index = index
        self.num_processors = num_processors
        self._entries: Dict[int, DirectoryEntry] = {}
        self._buckets: Dict[int, List[DirectoryEntry]] = {}
        #: Bit ``s`` is set iff ``_buckets`` holds a (non-empty) bucket s.
        self._occupied = 0

    def _bucket_of(self, line_addr: int) -> int:
        return line_addr & (self.INDEX_SETS - 1)

    # -- storage ------------------------------------------------------------
    def entry(self, line_addr: int) -> DirectoryEntry:
        """Fetch-or-create the entry for ``line_addr``."""
        entry = self._entries.get(line_addr)
        if entry is None:
            entry = self._entries[line_addr] = DirectoryEntry(line_addr)
            index = self._bucket_of(line_addr)
            bucket = self._buckets.get(index)
            if bucket is None:
                bucket = self._buckets[index] = []
                self._occupied |= 1 << index
            bucket.append(entry)
        return entry

    def peek(self, line_addr: int) -> Optional[DirectoryEntry]:
        """Lookup without allocation (used by signature expansion)."""
        return self._entries.get(line_addr)

    def drop(self, line_addr: int) -> Optional[DirectoryEntry]:
        entry = self._entries.pop(line_addr, None)
        if entry is not None:
            index = self._bucket_of(line_addr)
            bucket = self._buckets[index]
            bucket.remove(entry)
            if not bucket:
                del self._buckets[index]
                self._occupied ^= 1 << index
        return entry

    def entries(self) -> Iterator[DirectoryEntry]:
        return iter(self._entries.values())

    def entry_count(self) -> int:
        return len(self._entries)

    def entries_in_sets(self, set_bitmap: int, num_sets: int) -> List[DirectoryEntry]:
        """Entries whose line address falls in the sets of a δ bitmap.

        This is the lookup pattern produced by signature expansion: decode
        (δ) yields the candidate sets' bitmap (bit ``s`` for set ``s`` of
        a ``num_sets``-set structure), then the module examines the
        entries in those sets.  The DirBDM's native geometry walks the
        occupied buckets the bitmap names, in ascending set order and
        insertion order within a set; other geometries scan every entry
        in insertion order.
        """
        if num_sets == self.INDEX_SETS:
            buckets = self._buckets
            out: List[DirectoryEntry] = []
            for set_index in set_indices(set_bitmap & self._occupied):
                out.extend(buckets[set_index])
            return out
        return self._scan_sets(set_bitmap, num_sets)

    def _scan_sets(self, set_bitmap: int, num_sets: int) -> List[DirectoryEntry]:
        """Every entry in the bitmap's sets, in insertion order."""
        mask = num_sets - 1
        return [
            entry
            for addr, entry in self._entries.items()
            if set_bitmap >> (addr & mask) & 1
        ]

    # -- coherence transitions ---------------------------------------------
    def add_sharer(self, line_addr: int, proc: int) -> DirectoryEntry:
        entry = self.entry(line_addr)
        entry.sharers.add(proc)
        return entry

    def remove_sharer(self, line_addr: int, proc: int) -> None:
        entry = self._entries.get(line_addr)
        if entry is None:
            return
        entry.sharers.discard(proc)
        if entry.owner == proc:
            entry.clear_owner()

    def resolve_false_owner(self, line_addr: int, proc: int) -> None:
        """Handle a writeback request answered with "I don't have it dirty".

        Signature aliasing can mark a processor as owner of a line it never
        wrote (Table 1 case 2 on a false positive).  When the directory
        later asks that "owner" for a writeback and it declines, the
        directory supplies the line from memory and repairs its state —
        the same recovery MESI uses after a silent Exclusive displacement.
        """
        entry = self._entries.get(line_addr)
        if entry is None:
            raise ProtocolError(f"false-owner repair on unknown line {line_addr:#x}")
        if entry.owner == proc:
            entry.clear_owner()
            entry.sharers.discard(proc)

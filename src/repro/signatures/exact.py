"""Alias-free "magic" signatures (the paper's BSCexact configuration).

An :class:`ExactSignature` stores the precise address set.  It answers every
bulk operation without false positives, which lets experiments isolate how
much of BulkSC's behaviour (squashes, unnecessary invalidations, directory
lookups) is caused by Bloom aliasing rather than true sharing.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set

from repro.signatures.base import Signature


class ExactSignature(Signature):
    """A signature that is simply the set of inserted line addresses."""

    __slots__ = ("_members",)

    def __init__(self) -> None:
        self._members: Set[int] = set()

    def _check_compatible(self, other: Signature) -> "ExactSignature":
        if not isinstance(other, ExactSignature):
            raise TypeError(f"cannot combine ExactSignature with {type(other).__name__}")
        return other

    # -- mutation -----------------------------------------------------------
    def insert(self, line_addr: int) -> None:
        self._members.add(line_addr)

    def clear(self) -> None:
        self._members.clear()

    def insert_many(self, line_addrs: Iterable[int]) -> None:
        self._members.update(line_addrs)

    def member_many(self, line_addrs: Iterable[int]) -> List[bool]:
        members = self._members
        return [addr in members for addr in line_addrs]

    def filter_members(self, line_addrs: Iterable[int]) -> List[int]:
        members = self._members
        return [addr for addr in line_addrs if addr in members]

    # -- functional operations ------------------------------------------------
    def intersect(self, other: Signature) -> "ExactSignature":
        out = ExactSignature()
        out._members = self._members & self._check_compatible(other)._members
        return out

    def union(self, other: Signature) -> "ExactSignature":
        out = ExactSignature()
        out._members = self._members | self._check_compatible(other)._members
        return out

    def is_empty(self) -> bool:
        return not self._members

    def disjoint(self, other: Signature) -> bool:
        """Allocation-free emptiness of the intersection (no new signature)."""
        return self._members.isdisjoint(self._check_compatible(other)._members)

    def member(self, line_addr: int) -> bool:
        return line_addr in self._members

    def decode_sets(self, num_sets: int) -> int:
        mask = num_sets - 1
        candidates = 0
        for addr in self._members:
            candidates |= 1 << (addr & mask)
        return candidates

    # -- introspection -----------------------------------------------------------
    def exact_members(self) -> FrozenSet[int]:
        """The inserted address set itself."""
        return frozenset(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ExactSignature n={len(self._members)}>"

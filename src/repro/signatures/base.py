"""Common interface for address signatures, and the disambiguation predicate.

A signature is its encoding: the packed bits of a Bloom filter, or the
precise set of an alias-free signature.  The simulator's aliasing ground
truth lives in the chunks' ``true_*_lines`` sets, not in the signatures.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List


class Signature(ABC):
    """A superset encoding of a set of cache-line addresses.

    Mutating methods (:meth:`insert`, :meth:`insert_many`, :meth:`clear`)
    are used while a chunk accumulates accesses; the functional operations
    (:meth:`intersect`, :meth:`union`) return new signatures and model the
    BDM's combinational signature units.

    Subclasses must be mutually compatible only with instances of the same
    concrete type and geometry; mixing Bloom and exact signatures is a
    programming error and raises ``TypeError``.
    """

    __slots__ = ()

    # -- mutation -----------------------------------------------------------
    @abstractmethod
    def insert(self, line_addr: int) -> None:
        """Accumulate one line address."""

    @abstractmethod
    def clear(self) -> None:
        """Reset to the empty signature."""

    # -- array operations -----------------------------------------------------
    # Whole-address-array forms of insert/member.  The base versions are
    # plain loops; concrete signatures override them with one-pass kernels
    # (a single mask OR for Bloom, set ops for exact) so batch producers —
    # the chunk interpreter, bulk invalidation, commit expansion — never
    # pay per-address dispatch.
    def insert_many(self, line_addrs: Iterable[int]) -> None:
        """Accumulate a whole address array."""
        for addr in line_addrs:
            self.insert(addr)

    def member_many(self, line_addrs: Iterable[int]) -> List[bool]:
        """Vector membership test: one bool per address, same order."""
        member = self.member
        return [member(addr) for addr in line_addrs]

    def filter_members(self, line_addrs: Iterable[int]) -> List[int]:
        """The subsequence of ``line_addrs`` the signature may contain."""
        member = self.member
        return [addr for addr in line_addrs if member(addr)]

    # -- functional operations (Figure 2b) ----------------------------------
    @abstractmethod
    def intersect(self, other: "Signature") -> "Signature":
        """Signature intersection (∩)."""

    @abstractmethod
    def union(self, other: "Signature") -> "Signature":
        """Signature union (∪)."""

    @abstractmethod
    def is_empty(self) -> bool:
        """Emptiness test (= ∅): true iff no address can be a member."""

    @abstractmethod
    def member(self, line_addr: int) -> bool:
        """Membership test (∈); may report false positives."""

    @abstractmethod
    def decode_sets(self, num_sets: int) -> int:
        """Decode (δ) into a bitmap of the cache sets that could hold members.

        Bit ``s`` of the result is set iff set ``s`` is a candidate.
        Enables *signature expansion*: finding all lines in a cache (or
        directory) that may belong to the signature without traversing the
        whole structure; :func:`set_indices` walks the bitmap.
        """

    # -- fast predicates (allocation-free disambiguation) --------------------
    def disjoint(self, other: "Signature") -> bool:
        """True iff ``self ∩ other`` is provably empty.

        Semantically identical to ``self.intersect(other).is_empty()``;
        concrete signatures override it with a kernel that never
        materializes the intermediate signature (the hardware's bulk
        bitwise circuit, Figure 2b).  This is the hot-path predicate used
        by the BDM, the arbiter, and the DirBDM admission checks.
        """
        return self.intersect(other).is_empty()


def set_indices(set_bitmap: int) -> List[int]:
    """The set indices of a δ bitmap, lowest first."""
    # Scanning the binary digits, least significant first, is one C-level
    # pass; peeling bits off a 4096-bit int copies it once per bit.
    digits = bin(set_bitmap)[:1:-1]
    out: List[int] = []
    index = digits.find("1")
    while index >= 0:
        out.append(index)
        index = digits.find("1", index + 1)
    return out


def collides(w_commit: Signature, r_local: Signature, w_local: Signature) -> bool:
    """The bulk-disambiguation predicate from Section 2.2.

    A local chunk collides with a committing chunk C when::

        (W_C ∩ R_L) ∪ (W_C ∩ W_L) ≠ ∅

    The W ∩ W term is required because a store updates only part of a cache
    line, so two writers of one line must not commit concurrently.  Both
    terms go through the allocation-free :meth:`Signature.disjoint`
    kernel, R first, so no intermediate signature is built per check.
    """
    if not w_commit.disjoint(r_local):
        return True
    return not w_commit.disjoint(w_local)

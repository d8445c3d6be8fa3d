"""Banked Bloom-filter signatures (paper Figure 2a, organization as in Bulk).

The hardware *permutes* the bits of each line address and uses disjoint
bit-fields of the permuted value to index independent banks of a bit
array.  We model the permutation as a stride-``num_banks`` bit
interleave: bank *i* is indexed by address bits ``i, i+B, i+2B, ...``
(B = number of banks).  This is the property that gives Bulk signatures
their characteristic behaviour, which the paper's evaluation depends on:

* **Spatial locality is nearly alias-free.**  Two chunks working in
  different memory regions differ in some high address bit; that bit
  lands in one bank's field, making the two chunks' index sets in that
  bank *disjoint* — the bank AND is zero and the intersection is provably
  empty.  This is why ocean's dense partitioned accesses barely alias.
* **Scattered accesses saturate.**  A radix-style permutation scatter
  sets bits across every bank's space, so intersections with anything
  look non-empty — reproducing radix's pathological squash rate.

A bank with *no* bits set proves the encoded set is empty, so the
emptiness test after an intersection is "any bank is all-zero" — the
same circuit the BDM uses.

Decode (δ) reconstructs candidate cache sets by projecting each bank's
set bit positions onto the address bits that form the cache index and
intersecting the per-bank constraints — without touching the cache.

Representation
--------------
All banks live in **one packed Python int**, the public ``bits``
attribute: bank *i* occupies bits
``[i * bits_per_bank, (i + 1) * bits_per_bank)``.  Because the banks are
bit-aligned, intersection and union of two signatures are single ``&`` /
``|`` operations on the packed words — the constant-time bulk circuits of
Figure 2(b) — and each address contributes one precomputed *mask* (one
bit per bank) so insert and membership are one OR / one AND-compare.
:meth:`disjoint` is the allocation-free disambiguation kernel: it ANDs
the packed words and early-exits on the first all-zero bank, never
materializing an intermediate signature.

The ``_exact`` ground-truth mirror (a Python set shadowing every insert,
used only for aliasing statistics) is **opt-in**: signatures built by a
:class:`~repro.signatures.factory.SignatureFactory` carry bits only
unless the configuration asks for the mirror, so default simulations pay
no per-insert set maintenance.  Directly constructed signatures keep the
mirror on for unit tests and interactive use.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.signatures.base import Signature

#: Address bits covered by the bit-interleave before folding wraps around.
_FOLD_BITS = 36


class IndexCache:
    """A capped LRU of per-geometry address hash results.

    Line addresses repeat constantly (pin checks, membership tests, chunk
    accumulation), so memoizing the bit-gather per ``(geometry, address)``
    is a large simulation-speed win.  The cache is module-global — the
    hash is pure — but **bounded**: long sweeps touch millions of
    distinct (config, app, seed) addresses, and an unbounded dict grows
    without limit across a process-long campaign.  Hit/miss/eviction
    counters are exported into each run's stats registry by
    :class:`repro.system.Machine`.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_entries")

    def __init__(self, capacity: int = 1 << 16):
        if capacity < 1:
            raise ValueError("index cache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Tuple[int, int, int], Tuple[int, Tuple[int, ...]]]" = (
            OrderedDict()
        )

    def get(self, key):
        entry = self._entries.get(key)
        if entry is not None:
            # No move_to_end: FIFO-ish eviction loses a little hit rate
            # at the bound but halves the cost of the (dominant) hit
            # path, and evictions only ever cost recomputation.
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def put(self, key, value) -> None:
        entries = self._entries
        entries[key] = value
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def resize(self, capacity: int) -> None:
        """Change the bound; evicts LRU entries if shrinking."""
        if capacity < 1:
            raise ValueError("index cache capacity must be positive")
        self.capacity = capacity
        while len(self._entries) > capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }


#: Memoized per-geometry hash results:
#: (num_banks, index_bits, line) -> (packed insert mask, per-bank indices).
INDEX_CACHE = IndexCache()


class BloomSignature(Signature):
    """A ``num_banks``-banked, bit-field-indexed Bloom filter."""

    __slots__ = (
        "num_banks",
        "bits_per_bank",
        "_index_bits",
        "_bank_mask",
        "bits",
        "_exact",
    )

    def __init__(
        self, size_bits: int = 2048, num_banks: int = 4, track_exact: bool = True
    ):
        if size_bits % num_banks:
            raise ValueError("size_bits must divide evenly into banks")
        self.num_banks = num_banks
        self.bits_per_bank = size_bits // num_banks
        if self.bits_per_bank & (self.bits_per_bank - 1):
            raise ValueError("bits per bank must be a power of two")
        self._index_bits = self.bits_per_bank.bit_length() - 1
        self._bank_mask = (1 << self.bits_per_bank) - 1
        #: All banks packed into one int (bank i at bit offset
        #: i*bits_per_bank).  Public so batch producers can OR in masks
        #: from :meth:`mask_of` / :meth:`masks_of` without a call per
        #: address; that skips the exact mirror, so only when
        #: :attr:`tracks_exact` is False.
        self.bits = 0
        # Simulator-only ground truth for aliasing statistics (opt-in).
        self._exact: Optional[Set[int]] = set() if track_exact else None

    # -- hashing ---------------------------------------------------------
    def _fold(self, line_addr: int) -> int:
        """Fold addresses wider than the interleave back into range."""
        folded = line_addr & ((1 << _FOLD_BITS) - 1)
        extra = line_addr >> _FOLD_BITS
        while extra:
            folded ^= extra & ((1 << _FOLD_BITS) - 1)
            extra >>= _FOLD_BITS
        return folded

    def _hash(self, line_addr: int) -> Tuple[int, Tuple[int, ...]]:
        """(packed one-bit-per-bank mask, per-bank indices) — memoized."""
        key = (self.num_banks, self._index_bits, line_addr)
        cached = INDEX_CACHE.get(key)
        if cached is not None:
            return cached
        addr = self._fold(line_addr)
        banks = self.num_banks
        bpb = self.bits_per_bank
        indices = []
        mask = 0
        for bank in range(banks):
            index = 0
            for j in range(self._index_bits):
                index |= ((addr >> (bank + banks * j)) & 1) << j
            indices.append(index)
            mask |= 1 << (bank * bpb + index)
        result = (mask, tuple(indices))
        INDEX_CACHE.put(key, result)
        return result

    def _bank_indices(self, line_addr: int) -> Tuple[int, ...]:
        """Per-bank bit indices for ``line_addr`` (memoized)."""
        return self._hash(line_addr)[1]

    def _bank_index(self, bank: int, line_addr: int) -> int:
        """Gather address bits ``bank, bank+B, bank+2B, ...`` into an index."""
        return self._hash(line_addr)[1][bank]

    # -- geometry helpers ----------------------------------------------------
    @property
    def size_bits(self) -> int:
        return self.bits_per_bank * self.num_banks

    @property
    def tracks_exact(self) -> bool:
        return self._exact is not None

    def bank_bits(self, bank: int) -> int:
        """The raw bit array of one bank."""
        return (self.bits >> (bank * self.bits_per_bank)) & self._bank_mask

    def _check_compatible(self, other: Signature) -> "BloomSignature":
        if not isinstance(other, BloomSignature):
            raise TypeError(f"cannot combine BloomSignature with {type(other).__name__}")
        if (
            other.num_banks != self.num_banks
            or other.bits_per_bank != self.bits_per_bank
        ):
            raise TypeError("signature geometries differ")
        return other

    # -- mutation -------------------------------------------------------------
    def insert(self, line_addr: int) -> None:
        self.bits |= self._hash(line_addr)[0]
        if self._exact is not None:
            self._exact.add(line_addr)

    def mask_of(self, line_addr: int) -> int:
        """Packed insert mask of one address (one bit per bank).

        ``sig.bits |= mask`` inserts the address and ``(sig.bits & mask)
        == mask`` is its membership test; the mask depends only on the
        geometry, so callers may memoize it per address.
        """
        return self._hash(line_addr)[0]

    def masks_of(self, line_addrs: Iterable[int]) -> int:
        """Combined packed insert mask of a whole address array.

        One pass over the (memoized) per-address hashes; the result is the
        exact bit image the array would leave in an empty signature, so
        ``sig.bits |= sig.masks_of(addrs)`` is the array insert and
        ``(sig.bits & mask) == mask`` tests any single-address mask.
        This is the kernel behind :meth:`insert_many`.
        """
        bits = 0
        hash_ = self._hash
        for addr in line_addrs:
            bits |= hash_(addr)[0]
        return bits

    def insert_many(self, line_addrs: Iterable[int]) -> None:
        addrs = line_addrs if isinstance(line_addrs, (list, tuple)) else list(line_addrs)
        self.bits |= self.masks_of(addrs)
        if self._exact is not None:
            self._exact.update(addrs)

    def member_many(self, line_addrs: Iterable[int]) -> List[bool]:
        bits = self.bits
        hash_ = self._hash
        out: List[bool] = []
        for addr in line_addrs:
            mask = hash_(addr)[0]
            out.append((bits & mask) == mask)
        return out

    def filter_members(self, line_addrs: Iterable[int]) -> List[int]:
        bits = self.bits
        hash_ = self._hash
        out: List[int] = []
        for addr in line_addrs:
            mask = hash_(addr)[0]
            if (bits & mask) == mask:
                out.append(addr)
        return out

    def clear(self) -> None:
        self.bits = 0
        if self._exact is not None:
            self._exact.clear()

    def union_update(self, other: Signature) -> None:
        o = self._check_compatible(other)
        self.bits |= o.bits
        if self._exact is not None:
            if o._exact is not None:
                self._exact |= o._exact
            else:
                # The mirror can no longer be ground truth; drop it rather
                # than report a false subset.
                self._exact = None

    # -- functional operations -------------------------------------------------
    def _derived(self, bits: int, exact: Optional[Set[int]]) -> "BloomSignature":
        out = BloomSignature(self.size_bits, self.num_banks, track_exact=False)
        out.bits = bits
        out._exact = exact
        return out

    def intersect(self, other: Signature) -> "BloomSignature":
        o = self._check_compatible(other)
        exact = (
            self._exact & o._exact
            if self._exact is not None and o._exact is not None
            else None
        )
        return self._derived(self.bits & o.bits, exact)

    def union(self, other: Signature) -> "BloomSignature":
        o = self._check_compatible(other)
        exact = (
            self._exact | o._exact
            if self._exact is not None and o._exact is not None
            else None
        )
        return self._derived(self.bits | o.bits, exact)

    def is_empty(self) -> bool:
        # An address sets one bit in *every* bank, so an all-zero bank
        # proves the encoded set is empty.
        bits = self.bits
        if not bits:
            return True
        bpb = self.bits_per_bank
        mask = self._bank_mask
        for __ in range(self.num_banks):
            if not bits & mask:
                return True
            bits >>= bpb
        return False

    def disjoint(self, other: Signature) -> bool:
        """Allocation-free ``(self ∩ other) = ∅`` (the BDM/arbiter kernel).

        ANDs the packed banks and early-exits on the first all-zero bank
        — the provably-empty case — without building an intermediate
        signature or touching the exact mirrors.
        """
        o = self._check_compatible(other)
        inter = self.bits & o.bits
        if not inter:
            return True
        bpb = self.bits_per_bank
        mask = self._bank_mask
        for __ in range(self.num_banks):
            if not inter & mask:
                return True
            inter >>= bpb
        return False

    def member(self, line_addr: int) -> bool:
        mask = self._hash(line_addr)[0]
        return (self.bits & mask) == mask

    # -- decode (δ) --------------------------------------------------------------
    def decode_sets(self, num_sets: int) -> Set[int]:
        """Candidate cache sets, reconstructed from the bank bit-fields.

        The cache set index is the low ``log2(num_sets)`` line-address
        bits.  Bank *i* constrains the address bits ``i, i+B, ...``; each
        set-index bit therefore belongs to exactly one bank, so the
        candidates are the cartesian product of every bank's observed
        projections, scattered back onto the set-index bits — no scan of
        the ``num_sets`` space.
        """
        if self.is_empty():
            return set()
        set_bits = num_sets.bit_length() - 1
        if set_bits == 0:
            return {0}
        banks = self.num_banks
        candidates: List[int] = [0]
        for bank in range(banks):
            # Set-index bit positions covered by this bank: address bit
            # b = bank + B*j with b < set_bits; within the bank's index,
            # that address bit is index bit j.
            positions = [
                (b, (b - bank) // banks) for b in range(bank, set_bits, banks)
            ]
            if not positions:
                continue
            # Scatter each observed bank index onto the set-index bits the
            # bank covers; distinct indices can project onto the same value.
            projections: Set[int] = set()
            bits = self.bank_bits(bank)
            while bits:
                low = bits & -bits
                bits ^= low
                index = low.bit_length() - 1
                value = 0
                for b, j in positions:
                    value |= ((index >> j) & 1) << b
                projections.add(value)
            if not projections:
                return set()
            candidates = [
                base | value for base in candidates for value in sorted(projections)
            ]
        return set(candidates)

    def copy(self) -> "BloomSignature":
        return self._derived(
            self.bits, set(self._exact) if self._exact is not None else None
        )

    def empty_like(self) -> "BloomSignature":
        return BloomSignature(
            self.size_bits, self.num_banks, track_exact=self.tracks_exact
        )

    # -- introspection -----------------------------------------------------------
    def exact_members(self) -> FrozenSet[int]:
        if self._exact is None:
            raise RuntimeError(
                "exact mirror disabled (track_exact=False); ground truth is "
                "only available in verify/stats modes"
            )
        return frozenset(self._exact)

    def popcount(self) -> int:
        """Total number of set bits; a pollution measure."""
        return bin(self.bits).count("1")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        true = len(self._exact) if self._exact is not None else "off"
        return (
            f"<BloomSignature banks={self.num_banks}x{self.bits_per_bank} "
            f"pop={self.popcount()} true={true}>"
        )

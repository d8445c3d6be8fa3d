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

Decode (δ) reconstructs candidate cache sets as a bitmap, without
touching the cache: each bank constrains the set-index bits its
address bits cover, so δ ORs, per bank, the precomputed bitmaps of the
sets each observed bank value allows, and ANDs the banks.

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

A signature holds nothing but ``bits``: the simulator's aliasing ground
truth (Tables 3-4) is the chunks' ``true_*_lines`` sets.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Tuple

from repro.signatures.base import Signature

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
        self._entries: "OrderedDict[Tuple[int, int, int], int]" = OrderedDict()

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

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }


#: Memoized per-geometry hash results:
#: (num_banks, index_bits, line) -> packed insert mask.
INDEX_CACHE = IndexCache()

#: A bank's δ table: (bank offset in the packed word, number of values
#: the bank can report, value -> bitmap of the sets that value allows).
_BankTable = Tuple[int, int, List[int]]

#: δ tables per (num_banks, index_bits, set_bits) geometry.
_DECODE_TABLES: Dict[Tuple[int, int, int], List[_BankTable]] = {}


def _decode_tables(num_banks: int, index_bits: int, set_bits: int) -> List[_BankTable]:
    """The δ table of every bank that covers a set-index bit.

    Bank *i* holds address bits ``i, i+B, i+2B, ...`` at its index bits
    ``0, 1, 2, ...``, so the set-index bits it covers read, in a bank
    index, as that index's low bits.  A bank value ``v`` allows exactly
    the sets whose covered bits spell ``v``: the sets with those bits
    clear, shifted by ``v`` scattered onto them.  A bank hashes only
    ``index_bits`` address bits, so a set-index bit past them (or past
    every bank) is covered by no bank and free.
    """
    key = (num_banks, index_bits, set_bits)
    tables = _DECODE_TABLES.get(key)
    if tables is None:
        bits_per_bank = 1 << index_bits
        tables = []
        for bank in range(min(num_banks, set_bits)):
            positions = range(bank, set_bits, num_banks)[:index_bits]
            covered = sum(1 << b for b in positions)
            clear = sum(1 << s for s in range(1 << set_bits) if not s & covered)
            values = min(1 << len(positions), bits_per_bank)
            tables.append((
                bank * bits_per_bank,
                values,
                [
                    clear << sum(((v >> j) & 1) << b for j, b in enumerate(positions))
                    for v in range(values)
                ],
            ))
        _DECODE_TABLES[key] = tables
    return tables


class BloomSignature(Signature):
    """A ``num_banks``-banked, bit-field-indexed Bloom filter."""

    __slots__ = (
        "num_banks",
        "bits_per_bank",
        "_index_bits",
        "_bank_mask",
        "bits",
    )

    def __init__(self, size_bits: int = 2048, num_banks: int = 4):
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
        #: address.
        self.bits = 0

    # -- hashing ---------------------------------------------------------
    def mask_of(self, line_addr: int) -> int:
        """Packed insert mask of one address (one bit per bank), memoized.

        ``sig.bits |= mask`` inserts the address and ``(sig.bits & mask)
        == mask`` is its membership test; the mask depends only on the
        geometry, so callers may memoize it per address.  Address bits
        past the first ``num_banks * index_bits`` are not hashed.
        """
        key = (self.num_banks, self._index_bits, line_addr)
        mask = INDEX_CACHE.get(key)
        if mask is not None:
            return mask
        banks = self.num_banks
        bpb = self.bits_per_bank
        mask = 0
        for bank in range(banks):
            index = 0
            for j in range(self._index_bits):
                index |= ((line_addr >> (bank + banks * j)) & 1) << j
            mask |= 1 << (bank * bpb + index)
        INDEX_CACHE.put(key, mask)
        return mask

    # -- geometry helpers ----------------------------------------------------
    @property
    def size_bits(self) -> int:
        return self.bits_per_bank * self.num_banks

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
        self.bits |= self.mask_of(line_addr)

    def masks_of(self, line_addrs: Iterable[int]) -> int:
        """Combined packed insert mask of a whole address array.

        One pass over the (memoized) per-address hashes; the result is the
        exact bit image the array would leave in an empty signature, so
        ``sig.bits |= sig.masks_of(addrs)`` is the array insert and
        ``(sig.bits & mask) == mask`` tests any single-address mask.
        This is the kernel behind :meth:`insert_many`.
        """
        bits = 0
        mask_of = self.mask_of
        for addr in line_addrs:
            bits |= mask_of(addr)
        return bits

    def insert_many(self, line_addrs: Iterable[int]) -> None:
        self.bits |= self.masks_of(line_addrs)

    def member_many(self, line_addrs: Iterable[int]) -> List[bool]:
        bits = self.bits
        mask_of = self.mask_of
        out: List[bool] = []
        for addr in line_addrs:
            mask = mask_of(addr)
            out.append((bits & mask) == mask)
        return out

    def filter_members(self, line_addrs: Iterable[int]) -> List[int]:
        bits = self.bits
        mask_of = self.mask_of
        out: List[int] = []
        for addr in line_addrs:
            mask = mask_of(addr)
            if (bits & mask) == mask:
                out.append(addr)
        return out

    def clear(self) -> None:
        self.bits = 0

    # -- functional operations -------------------------------------------------
    def _derived(self, bits: int) -> "BloomSignature":
        out = BloomSignature(self.size_bits, self.num_banks)
        out.bits = bits
        return out

    def intersect(self, other: Signature) -> "BloomSignature":
        return self._derived(self.bits & self._check_compatible(other).bits)

    def union(self, other: Signature) -> "BloomSignature":
        return self._derived(self.bits | self._check_compatible(other).bits)

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
        signature.
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
        mask = self.mask_of(line_addr)
        return (self.bits & mask) == mask

    # -- decode (δ) --------------------------------------------------------------
    def decode_sets(self, num_sets: int) -> int:
        """Bitmap of the candidate cache sets, from the bank bit-fields.

        The cache set index is the low ``log2(num_sets)`` line-address
        bits, and each of them belongs to exactly one bank.  A bank's
        bit array folds onto the values its covered bits can take; the
        bank allows the OR of those values' set bitmaps, and the
        candidates are the AND over the banks — no scan of the
        ``num_sets`` space and no product of per-bank candidates.
        """
        if self.is_empty():
            return 0
        set_bits = num_sets.bit_length() - 1
        if set_bits == 0:
            return 1
        bits = self.bits
        bank_mask = self._bank_mask
        candidates = -1
        for offset, values, table in _decode_tables(
            self.num_banks, self._index_bits, set_bits
        ):
            seen = (bits >> offset) & bank_mask
            width = self.bits_per_bank
            while width > values:
                width >>= 1
                seen = (seen & ((1 << width) - 1)) | (seen >> width)
            allowed = 0
            while seen:
                low = seen & -seen
                allowed |= table[low.bit_length() - 1]
                seen ^= low
            candidates &= allowed
        return candidates

    # -- introspection -----------------------------------------------------------
    def popcount(self) -> int:
        """Total number of set bits; a pollution measure."""
        return bin(self.bits).count("1")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BloomSignature banks={self.num_banks}x{self.bits_per_bank} "
            f"pop={self.popcount()}>"
        )

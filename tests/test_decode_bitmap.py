"""Decode (δ) as a set bitmap, and the order expansion visits entries in.

``decode_sets`` returns an int whose bit ``s`` marks candidate set ``s``.
The Bloom decoder must name exactly the sets the per-bank cartesian
product names (kept below as :func:`reference_decode`, the only copy of
that algorithm, with set-index bits that no bank hashes left free), so
it names every inserted line's set, and the directory walks must keep the
orders signature expansion has always produced: ascending set index,
then insertion order, for a full-map directory; insertion order for a
directory cache.  Both orders reach the simulated event order.
"""

from typing import List, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.directory import DirectoryModule
from repro.coherence.directory_cache import DirectoryCache
from repro.signatures.base import set_indices
from repro.signatures.bloom import BloomSignature
from repro.signatures.exact import ExactSignature


def reference_decode(sig: BloomSignature, num_sets: int) -> Set[int]:
    """The cartesian product of every bank's projections (the old δ).

    A bank hashes only its first ``index_bits`` interleaved address bits,
    so set-index bits past them, which no bank covers, take both values.
    """
    if sig.is_empty():
        return set()
    set_bits = num_sets.bit_length() - 1
    if set_bits == 0:
        return {0}
    banks = sig.num_banks
    index_bits = sig.bits_per_bank.bit_length() - 1
    candidates: List[int] = [0]
    covered = 0
    for bank in range(banks):
        positions = [
            (b, (b - bank) // banks) for b in range(bank, set_bits, banks)
        ][:index_bits]
        if not positions:
            continue
        covered |= sum(1 << b for b, __ in positions)
        projections: Set[int] = set()
        bits = sig.bank_bits(bank)
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
        candidates = [base | value for base in candidates for value in projections]
    for b in range(set_bits):
        if not covered >> b & 1:
            candidates += [base | 1 << b for base in candidates]
    return set(candidates)


def bitmap_of(sets) -> int:
    return sum(1 << s for s in set(sets))


geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8]),  # banks
    st.sampled_from([8, 16, 32, 64, 512]),  # bits per bank
)
addresses = st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1), max_size=40)
set_counts = st.integers(min_value=0, max_value=12).map(lambda b: 1 << b)


def bloom(geometry, addrs) -> BloomSignature:
    banks, bits_per_bank = geometry
    sig = BloomSignature(banks * bits_per_bank, banks)
    sig.insert_many(addrs)
    return sig


@settings(max_examples=300, deadline=None)
@given(geometries, addresses, set_counts)
def test_bloom_bitmap_matches_cartesian_product(geometry, addrs, num_sets):
    sig = bloom(geometry, addrs)
    assert sig.decode_sets(num_sets) == bitmap_of(reference_decode(sig, num_sets))


@settings(max_examples=300, deadline=None)
@given(geometries, addresses, set_counts)
def test_bloom_decode_names_every_inserted_line_set(geometry, addrs, num_sets):
    """δ is a superset decode: no member's set is ever missing."""
    sig = bloom(geometry, addrs)
    candidates = sig.decode_sets(num_sets)
    for addr in addrs:
        assert candidates >> (addr & (num_sets - 1)) & 1


def test_bloom_decode_frees_set_bits_no_bank_hashes():
    """One 8-bit bank hashes 3 address bits; set bit 3 must stay free."""
    sig = BloomSignature(8, 1)
    sig.insert(8)
    assert sig.member(8)
    assert sig.decode_sets(16) >> 8 & 1


def test_bloom_decode_ignores_address_bits_past_the_hash():
    """Bits past the hashed ones alias; they do not move the set."""
    sig = BloomSignature(2048, 4)
    sig.insert((1 << 36) | 5)
    assert sig.decode_sets(4096) == 1 << 5


@settings(max_examples=200, deadline=None)
@given(geometries, addresses, addresses, set_counts)
def test_bloom_bitmap_matches_on_intersections(geometry, a, b, num_sets):
    """Intersections can leave some banks empty and others not."""
    sig = bloom(geometry, a).intersect(bloom(geometry, b))
    assert sig.decode_sets(num_sets) == bitmap_of(reference_decode(sig, num_sets))


def test_bloom_bitmap_matches_on_saturated_signature():
    for banks in (1, 2, 4, 8):
        sig = BloomSignature(banks * 64, banks)
        sig.bits = (1 << sig.size_bits) - 1
        for set_bits in range(13):
            num_sets = 1 << set_bits
            expected = bitmap_of(reference_decode(sig, num_sets))
            assert sig.decode_sets(num_sets) == expected


@settings(max_examples=200, deadline=None)
@given(addresses, set_counts)
def test_exact_bitmap_is_the_member_sets(addrs, num_sets):
    sig = ExactSignature()
    sig.insert_many(addrs)
    mask = num_sets - 1
    assert sig.decode_sets(num_sets) == bitmap_of(addr & mask for addr in addrs)


@given(st.sets(st.integers(min_value=0, max_value=4095)))
def test_set_indices_ascending(sets):
    assert set_indices(bitmap_of(sets)) == sorted(sets)


# -- expansion order ------------------------------------------------------

#: Directory ops: (is_drop, line).  Lines share a few buckets per set so
#: buckets hold several entries and drops empty some of them.
operations = st.lists(
    st.tuples(
        st.booleans(),
        st.builds(
            lambda s, tag: s + DirectoryModule.INDEX_SETS * tag,
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=3),
        ),
    ),
    max_size=120,
)
wanted_sets = st.sets(st.integers(min_value=0, max_value=40))


def apply(directory, ops) -> List[int]:
    """Run the ops; returns the live lines in insertion order."""
    live: List[int] = []
    for is_drop, line in ops:
        if is_drop:
            if directory.drop(line) is not None:
                live.remove(line)
        elif directory.peek(line) is None:
            directory.entry(line)
            live.append(line)
    return live


@settings(max_examples=200, deadline=None)
@given(operations, wanted_sets)
def test_directory_walk_is_set_order_then_insertion(ops, wanted):
    directory = DirectoryModule(0, 8)
    live = apply(directory, ops)
    num_sets = DirectoryModule.INDEX_SETS
    expected = [
        line
        for s in sorted(wanted)
        for line in live
        if line & (num_sets - 1) == s
    ]
    selected = directory.entries_in_sets(bitmap_of(wanted), num_sets)
    assert [entry.line_addr for entry in selected] == expected


def test_directory_walk_after_drop_empties_a_bucket():
    directory = DirectoryModule(0, 8)
    num_sets = DirectoryModule.INDEX_SETS
    for line in (7, 3, 7 + num_sets, 3 + num_sets):
        directory.entry(line)
    directory.drop(7)
    directory.drop(7 + num_sets)  # bucket 7 is now empty
    everything = (1 << num_sets) - 1
    assert [e.line_addr for e in directory.entries_in_sets(everything, num_sets)] == [
        3, 3 + num_sets,
    ]
    directory.entry(7 + 2 * num_sets)  # bucket 7 comes back
    assert [e.line_addr for e in directory.entries_in_sets(everything, num_sets)] == [
        3, 3 + num_sets, 7 + 2 * num_sets,
    ]
    assert directory.entries_in_sets(1 << 7, num_sets)[0].line_addr == 7 + 2 * num_sets


@settings(max_examples=200, deadline=None)
@given(operations, wanted_sets)
def test_directory_cache_walk_is_insertion_order(ops, wanted):
    displaced: List[int] = []
    cache = DirectoryCache(
        0, 8, num_sets=8, associativity=4,
        on_displace=lambda entry: displaced.append(entry.line_addr),
    )
    live: List[int] = []
    for is_drop, line in ops:
        if is_drop:
            if cache.drop(line) is not None:
                live.remove(line)
        elif cache.peek(line) is None:
            cache.entry(line)
            live.append(line)
            for victim in displaced:
                live.remove(victim)
            displaced.clear()
    num_sets = DirectoryModule.INDEX_SETS
    expected = [line for line in live if line & (num_sets - 1) in wanted]
    selected = cache.entries_in_sets(bitmap_of(wanted), num_sets)
    assert [entry.line_addr for entry in selected] == expected

"""Property-based tests on signatures (hypothesis).

The load-bearing invariant for BulkSC's correctness is that signatures
are *superset encodings*: every operation may over-approximate but never
under-approximate.  A false negative anywhere would let an SC violation
slip through undetected.
"""

from hypothesis import given, settings, strategies as st

from repro.signatures.bloom import BloomSignature
from repro.signatures.exact import ExactSignature

line_addrs = st.integers(min_value=0, max_value=(1 << 34) - 1)
addr_sets = st.sets(line_addrs, min_size=0, max_size=60)


def bloom_from(addrs):
    sig = BloomSignature()
    sig.insert_many(addrs)
    return sig


def exact_from(addrs):
    sig = ExactSignature()
    sig.insert_many(addrs)
    return sig


@given(addr_sets)
def test_bloom_membership_has_no_false_negatives(addrs):
    sig = bloom_from(addrs)
    assert all(sig.member(a) for a in addrs)


@given(addr_sets)
def test_bloom_emptiness_sound(addrs):
    """is_empty() may only be True when the set really is empty."""
    sig = bloom_from(addrs)
    assert sig.is_empty() == (len(addrs) == 0) or not sig.is_empty()
    if addrs:
        assert not sig.is_empty()


@given(addr_sets, addr_sets)
def test_bloom_intersection_never_misses_common_addresses(a, b):
    inter = bloom_from(a).intersect(bloom_from(b))
    common = a & b
    for addr in common:
        assert inter.member(addr)
    if common:
        assert not inter.is_empty()


@given(addr_sets, addr_sets)
def test_bloom_union_contains_both_sets(a, b):
    u = bloom_from(a).union(bloom_from(b))
    assert all(u.member(x) for x in a | b)


@given(addr_sets)
def test_bloom_decode_covers_all_member_sets(addrs):
    sig = bloom_from(addrs)
    for num_sets in (64, 256, 1024):
        candidates = sig.decode_sets(num_sets)
        for addr in addrs:
            assert candidates >> (addr % num_sets) & 1


@given(addr_sets, addr_sets)
def test_exact_signature_is_precise(a, b):
    inter = exact_from(a).intersect(exact_from(b))
    assert inter.exact_members() == frozenset(a & b)
    assert inter.is_empty() == (not (a & b))


@given(addr_sets, addr_sets)
def test_bloom_is_superset_of_exact_behaviour(a, b):
    """Wherever exact reports a collision, Bloom must too."""
    exact_hit = not exact_from(a).intersect(exact_from(b)).is_empty()
    bloom_hit = not bloom_from(a).intersect(bloom_from(b)).is_empty()
    if exact_hit:
        assert bloom_hit


@given(addr_sets)
@settings(max_examples=30)
def test_compression_roundtrip_size_positive(addrs):
    from repro.signatures.compression import compressed_size_bits

    sig = bloom_from(addrs)
    assert compressed_size_bits(sig) >= 8

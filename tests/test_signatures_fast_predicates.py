"""The fast predicates agree exactly with the allocating ground truth.

``disjoint`` and ``collides`` are the hot-path kernels the arbiter,
BDM, and G-arbiter run per committing W; the contract is bit-for-bit
agreement with the reference formulation ``intersect(...).is_empty()``
on *both* signature implementations, across randomized geometries and
address sets.  Not a superset property — exact equality: the fast path
must produce the same aliasing (false collisions included) as the
allocating path, or fast and exact runs would diverge.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.signatures.bloom import BloomSignature
from repro.signatures.exact import ExactSignature
from repro.signatures.base import collides

line_addrs = st.integers(min_value=0, max_value=(1 << 34) - 1)
addr_sets = st.sets(line_addrs, min_size=0, max_size=60)
#: (size_bits, num_banks) geometries: the paper's 2 Kbit/4 banks plus
#: smaller/denser shapes where aliasing is rampant.
geometries = st.sampled_from(
    [(2048, 4), (2048, 8), (1024, 4), (512, 2), (256, 4), (64, 1), (4096, 8)]
)


def bloom_pair(geometry, a, b):
    size_bits, num_banks = geometry
    sa = BloomSignature(size_bits, num_banks)
    sb = BloomSignature(size_bits, num_banks)
    sa.insert_many(a)
    sb.insert_many(b)
    return sa, sb


def exact_pair(a, b):
    sa, sb = ExactSignature(), ExactSignature()
    sa.insert_many(a)
    sb.insert_many(b)
    return sa, sb


@settings(max_examples=150, deadline=None)
@given(geometries, addr_sets, addr_sets)
def test_bloom_disjoint_matches_intersect_emptiness(geometry, a, b):
    sa, sb = bloom_pair(geometry, a, b)
    assert sa.disjoint(sb) == sa.intersect(sb).is_empty()
    assert sb.disjoint(sa) == sa.disjoint(sb)


@settings(max_examples=150, deadline=None)
@given(addr_sets, addr_sets)
def test_exact_disjoint_matches_intersect_emptiness(a, b):
    sa, sb = exact_pair(a, b)
    assert sa.disjoint(sb) == sa.intersect(sb).is_empty()
    assert sa.disjoint(sb) == (len(a & b) == 0)


@settings(max_examples=150, deadline=None)
@given(geometries, addr_sets, addr_sets, addr_sets)
def test_bloom_collides_matches_reference(geometry, wc, rl, wl):
    size_bits, num_banks = geometry
    sigs = []
    for addrs in (wc, rl, wl):
        sig = BloomSignature(size_bits, num_banks)
        sig.insert_many(addrs)
        sigs.append(sig)
    w_commit, r_local, w_local = sigs
    reference = not (
        w_commit.intersect(r_local).is_empty()
        and w_commit.intersect(w_local).is_empty()
    )
    assert collides(w_commit, r_local, w_local) == reference


@settings(max_examples=150, deadline=None)
@given(addr_sets, addr_sets, addr_sets)
def test_exact_collides_matches_reference(wc, rl, wl):
    sigs = []
    for addrs in (wc, rl, wl):
        sig = ExactSignature()
        sig.insert_many(addrs)
        sigs.append(sig)
    w_commit, r_local, w_local = sigs
    reference = bool((wc & rl) or (wc & wl))
    assert collides(w_commit, r_local, w_local) == reference


def bloom(*addrs):
    sig = BloomSignature()
    sig.insert_many(addrs)
    return sig


def exact(*addrs):
    sig = ExactSignature()
    sig.insert_many(addrs)
    return sig


def test_collides_on_read_set():
    """W_commit ∩ R_local non-empty means squash."""
    w_commit = exact(10)
    assert collides(w_commit, r_local=exact(10, 11), w_local=exact())


def test_collides_on_write_set():
    """The W∩W term handles partially-updated cache lines."""
    w_commit = exact(10)
    assert collides(w_commit, r_local=exact(), w_local=exact(10))


def test_no_collision_when_disjoint():
    assert not collides(exact(1), r_local=exact(2), w_local=exact(3))


def test_collides_with_bloom_signatures():
    w_commit = bloom(0x7000)
    assert collides(w_commit, r_local=bloom(0x7000), w_local=bloom())


def test_disjoint_rejects_mismatched_geometries():
    sa = BloomSignature(2048, 4)
    sb = BloomSignature(1024, 4)
    with pytest.raises(TypeError):
        sa.disjoint(sb)


def test_disjoint_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        BloomSignature().disjoint(ExactSignature())

"""Unit tests for banked Bloom signatures."""

import pytest

from repro.signatures.bloom import BloomSignature


def make(size=2048, banks=4):
    return BloomSignature(size, banks)


class TestBasics:
    def test_new_signature_is_empty(self):
        assert make().is_empty()

    def test_insert_makes_non_empty(self):
        sig = make()
        sig.insert(0x1234)
        assert not sig.is_empty()

    def test_member_no_false_negatives(self):
        sig = make()
        addrs = [7, 0x100, 0xDEAD, 0xBEEF00, 2**30 + 5]
        sig.insert_many(addrs)
        assert all(sig.member(a) for a in addrs)

    def test_clear(self):
        sig = make()
        sig.insert(42)
        sig.clear()
        assert sig.is_empty()
        assert not sig.member(42)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BloomSignature(2048, 3)  # does not divide
        with pytest.raises(ValueError):
            BloomSignature(1536, 4)  # 384 bits/bank not a power of two

    def test_exact_members_ground_truth(self):
        """The ground truth is the set the caller keeps, not the signature."""
        inserted = {1, 2, 3}
        sig = make()
        sig.insert_many(inserted)
        assert set(sig.filter_members(range(8))) >= inserted

    def test_popcount_bounded_by_inserts_times_banks(self):
        sig = make()
        for a in range(50):
            sig.insert(a * 977)
        assert 4 <= sig.popcount() <= 50 * 4


class TestOperations:
    def test_intersection_of_disjoint_local_sets_is_empty(self):
        """Sets in different high-address regions provably don't intersect."""
        a, b = make(), make()
        a.insert_many(range(0x1000000, 0x1000040))
        b.insert_many(range(0x2000000, 0x2000040))
        assert a.intersect(b).is_empty()

    def test_intersection_detects_common_address(self):
        a, b = make(), make()
        a.insert_many([10, 20, 30])
        b.insert_many([30, 40])
        assert not a.intersect(b).is_empty()

    def test_union_contains_both(self):
        a, b = make(), make()
        a.insert(5)
        b.insert(9)
        u = a.union(b)
        assert u.member(5) and u.member(9)

    def test_incompatible_geometries_rejected(self):
        with pytest.raises(TypeError):
            BloomSignature(2048, 4).intersect(BloomSignature(1024, 4))

    def test_mixing_with_exact_rejected(self):
        from repro.signatures.exact import ExactSignature

        with pytest.raises(TypeError):
            make().union(ExactSignature())


class TestSupersetEncoding:
    def test_intersection_is_superset_of_true_intersection(self):
        """Bloom may report extra, never fewer."""
        a, b = make(), make()
        a.insert_many(range(0, 200, 7))
        b.insert_many(range(0, 200, 11))
        true_common = set(range(0, 200, 7)) & set(range(0, 200, 11))
        inter = a.intersect(b)
        for addr in true_common:
            assert inter.member(addr)
        if true_common:
            assert not inter.is_empty()

    def test_locality_gives_low_false_positive_membership(self):
        """Addresses in a distant region rarely match a local set."""
        sig = make()
        base = 0x5 << 24
        sig.insert_many(base + i for i in range(40))
        other = 0xA3 << 24
        false_hits = sum(1 for i in range(500) if sig.member(other + i))
        assert false_hits < 50  # <10%

    def test_scatter_saturates_membership(self):
        """Widely-scattered inserts produce many false positives (radix)."""
        sig = make()
        import random

        rng = random.Random(0)
        sig.insert_many(rng.randrange(0, 1 << 30) for _ in range(500))
        probes = [rng.randrange(0, 1 << 30) for _ in range(300)]
        hits = sum(1 for p in probes if sig.member(p))
        # Saturated signatures alias heavily.
        assert hits > 30


class TestDecode:
    def test_decode_covers_true_sets(self):
        sig = make()
        num_sets = 256
        addrs = [0x30001, 0x30055, 0x300FE]
        sig.insert_many(addrs)
        candidates = sig.decode_sets(num_sets)
        for addr in addrs:
            assert candidates >> (addr % num_sets) & 1

    def test_decode_empty_signature(self):
        assert make().decode_sets(256) == 0

    def test_decode_is_selective_for_small_sets(self):
        sig = make()
        sig.insert(0x40010)
        candidates = sig.decode_sets(256)
        # must not degenerate to "all sets"
        assert bin(candidates).count("1") < 256

    def test_decode_single_set_cache(self):
        sig = make()
        sig.insert(123)
        assert sig.decode_sets(1) == 1 << 0


class TestFolding:
    def test_huge_addresses_fold_without_error(self):
        sig = make()
        sig.insert(1 << 60)
        assert sig.member(1 << 60)
        assert not sig.is_empty()


class TestArrayOperations:
    """The one-pass array API the batched engine builds signatures with."""

    ADDRS = [3, 17, 64, 1023, 4096, 3]  # includes a duplicate

    def test_insert_many_equals_per_address_inserts(self):
        batch, loop = make(), make()
        batch.insert_many(self.ADDRS)
        for addr in self.ADDRS:
            loop.insert(addr)
        assert batch.bits == loop.bits

    def test_masks_of_is_the_union_of_single_masks(self):
        sig = make()
        expected = 0
        for addr in self.ADDRS:
            expected |= sig.mask_of(addr)
        assert sig.masks_of(self.ADDRS) == expected

    def test_mask_of_is_the_single_insert_image(self):
        for addr in self.ADDRS:
            sig = make()
            sig.insert(addr)
            assert sig.bits == sig.mask_of(addr)
            assert sig.member(addr)

    def test_masks_of_empty_array_is_zero(self):
        assert make().masks_of([]) == 0

    def test_member_many_matches_member(self):
        sig = make()
        sig.insert_many([3, 17, 64])
        probes = [3, 4, 17, 18, 64, 1 << 40]
        assert sig.member_many(probes) == [sig.member(a) for a in probes]

    def test_filter_members_matches_member(self):
        sig = make()
        sig.insert_many([3, 17, 64])
        probes = [3, 4, 17, 18, 64]
        assert sig.filter_members(probes) == [
            a for a in probes if sig.member(a)
        ]

    def test_insert_many_accepts_generators(self):
        sig = make()
        sig.insert_many(a * 7 for a in range(20))
        assert all(sig.member(a * 7) for a in range(20))

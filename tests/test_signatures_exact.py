"""Unit tests for the alias-free exact signature."""

import pytest

from repro.signatures.exact import ExactSignature


def test_membership_exact():
    sig = ExactSignature()
    sig.insert_many([1, 5, 9])
    assert sig.member(5)
    assert not sig.member(6)


def test_no_false_positives_ever():
    sig = ExactSignature()
    sig.insert_many(range(1000))
    assert not any(sig.member(a) for a in range(1000, 2000))


def test_intersection_exact():
    a, b = ExactSignature(), ExactSignature()
    a.insert_many([1, 2, 3])
    b.insert_many([3, 4])
    inter = a.intersect(b)
    assert inter.exact_members() == frozenset({3})
    assert not inter.is_empty()


def test_disjoint_intersection_empty():
    a, b = ExactSignature(), ExactSignature()
    a.insert(1)
    b.insert(2)
    assert a.intersect(b).is_empty()


def test_union():
    a, b = ExactSignature(), ExactSignature()
    a.insert(1)
    b.insert(2)
    assert a.union(b).exact_members() == frozenset({1, 2})


def test_decode_sets_exact():
    sig = ExactSignature()
    sig.insert_many([0x101, 0x202])
    assert sig.decode_sets(256) == (1 << 0x01) | (1 << 0x02)


def test_clear():
    sig = ExactSignature()
    sig.insert(5)
    sig.clear()
    assert sig.is_empty()


def test_len():
    sig = ExactSignature()
    sig.insert_many([1, 2, 2, 3])
    assert len(sig) == 3


def test_mixing_with_bloom_rejected():
    from repro.signatures.bloom import BloomSignature

    with pytest.raises(TypeError):
        ExactSignature().intersect(BloomSignature())


class TestArrayOperations:
    def test_insert_many_and_member_many(self):
        from repro.signatures.exact import ExactSignature

        sig = ExactSignature()
        sig.insert_many([1, 5, 9])
        assert sig.member_many([1, 2, 5, 9]) == [True, False, True, True]
        assert sig.filter_members([1, 2, 5, 9]) == [1, 5, 9]
        assert sig.exact_members() == frozenset({1, 5, 9})

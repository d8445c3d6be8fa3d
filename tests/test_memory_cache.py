"""Tests for the set-associative tag array."""

import pytest

from repro.memory.cache import LineState, SetAssocCache
from repro.params import CacheGeometry


def small_cache(sets=4, ways=2):
    geometry = CacheGeometry(
        size_bytes=sets * ways * 32,
        associativity=ways,
        line_bytes=32,
        round_trip_cycles=2,
        mshr_entries=4,
    )
    return SetAssocCache(geometry, name="test")


def addr_in_set(cache, set_index, tag=0):
    return set_index + tag * cache.num_sets


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(5) is None
        cache.insert(5, LineState.SHARED)
        assert cache.lookup(5) is not None

    def test_probe_leaves_lru_alone(self):
        cache = small_cache(sets=4, ways=2)
        a, b, c = (addr_in_set(cache, 0, t) for t in range(3))
        cache.insert(a, LineState.SHARED)
        cache.insert(b, LineState.SHARED)
        assert cache.probe(a) is not None  # no refresh: a stays LRU
        assert cache.insert(c, LineState.SHARED).victim.line_addr == a

    def test_insert_same_line_updates_state(self):
        cache = small_cache()
        cache.insert(5, LineState.SHARED)
        cache.insert(5, LineState.MODIFIED)
        assert cache.probe(5).state is LineState.MODIFIED
        assert cache.resident_count() == 1

    def test_set_mapping(self):
        cache = small_cache(sets=4)
        cache.insert(1, LineState.SHARED)
        cache.insert(5, LineState.SHARED)  # 5 % 4 == 1
        assert cache.set_index(1) == cache.set_index(5) == 1


class TestEviction:
    def test_lru_victim(self):
        cache = small_cache(sets=4, ways=2)
        a, b, c = (addr_in_set(cache, 0, t) for t in range(3))
        cache.insert(a, LineState.SHARED)
        cache.insert(b, LineState.SHARED)
        cache.lookup(a)  # refresh a
        result = cache.insert(c, LineState.SHARED)
        assert result.victim.line_addr == b
        assert cache.contains(a) and cache.contains(c)

    def test_pinned_lines_not_victimized(self):
        cache = small_cache(sets=4, ways=2)
        a, b, c = (addr_in_set(cache, 0, t) for t in range(3))
        cache.insert(a, LineState.MODIFIED)
        cache.insert(b, LineState.SHARED)
        result = cache.insert(c, LineState.SHARED, pinned=lambda addr: addr == a)
        assert result.inserted
        assert result.victim.line_addr == b
        assert cache.contains(a)

    def test_insert_fails_when_all_pinned(self):
        cache = small_cache(sets=4, ways=2)
        a, b, c = (addr_in_set(cache, 0, t) for t in range(3))
        cache.insert(a, LineState.SHARED)
        cache.insert(b, LineState.SHARED)
        result = cache.insert(c, LineState.SHARED, pinned=lambda addr: True)
        assert not result.inserted
        assert not cache.contains(c)

    def test_departures_count_victims_and_invalidations(self):
        cache = small_cache(sets=4, ways=2)
        a, b, c = (addr_in_set(cache, 0, t) for t in range(3))
        cache.insert(a, LineState.SHARED)
        cache.insert(b, LineState.SHARED)
        cache.insert(b, LineState.MODIFIED)  # re-insert: nothing leaves
        assert cache.departures == 0
        cache.insert(c, LineState.SHARED, pinned=lambda addr: True)
        assert cache.departures == 0  # overflow: nothing leaves
        cache.insert(c, LineState.SHARED)
        assert cache.departures == 1  # a evicted
        cache.invalidate(b)
        cache.invalidate(b)  # absent: nothing leaves
        assert cache.departures == 2

    def test_would_overflow(self):
        cache = small_cache(sets=4, ways=2)
        a, b, c = (addr_in_set(cache, 0, t) for t in range(3))
        cache.insert(a, LineState.SHARED)
        assert not cache.would_overflow(c, pinned=lambda addr: True)
        cache.insert(b, LineState.SHARED)
        assert cache.would_overflow(c, pinned=lambda addr: True)
        assert not cache.would_overflow(c, pinned=lambda addr: addr == a)
        # Resident line never "overflows".
        assert not cache.would_overflow(a, pinned=lambda addr: True)


class TestInvalidation:
    def test_invalidate_removes(self):
        cache = small_cache()
        cache.insert(9, LineState.MODIFIED)
        victim = cache.invalidate(9)
        assert victim.dirty
        assert not cache.contains(9)

    def test_invalidate_missing_returns_none(self):
        assert small_cache().invalidate(1) is None

    def test_set_state(self):
        cache = small_cache()
        cache.insert(9, LineState.MODIFIED)
        cache.set_state(9, LineState.SHARED)
        assert cache.probe(9).state is LineState.SHARED
        cache.set_state(123, LineState.SHARED)  # no-op on absent line


class TestIteration:
    def test_lines_in_set(self):
        cache = small_cache(sets=4, ways=2)
        cache.insert(addr_in_set(cache, 2, 0), LineState.SHARED)
        cache.insert(addr_in_set(cache, 2, 1), LineState.SHARED)
        cache.insert(addr_in_set(cache, 3, 0), LineState.SHARED)
        assert len(list(cache.lines_in_set(2))) == 2
        assert len(list(cache.lines_in_set(3))) == 1

    def test_all_lines_and_resident_count(self):
        cache = small_cache()
        for i in range(5):
            cache.insert(i, LineState.SHARED)
        assert cache.resident_count() == 5
        assert len(list(cache.all_lines())) == 5


class TestDirtyBit:
    def test_modified_is_dirty(self):
        assert LineState.MODIFIED.is_dirty
        assert not LineState.SHARED.is_dirty
        assert not LineState.EXCLUSIVE.is_dirty

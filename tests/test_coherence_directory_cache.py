"""Tests for the bounded directory cache (Section 4.3.3)."""

import pytest

from repro.coherence.directory_cache import DirectoryCache


def make(sets=4, ways=2, on_displace=None):
    return DirectoryCache(
        0, 8, num_sets=sets, associativity=ways, on_displace=on_displace
    )


def addrs_in_set(cache, set_index, count):
    return [set_index + t * cache.num_sets for t in range(count)]


def test_capacity_bound_triggers_displacement():
    displaced = []
    cache = make(on_displace=displaced.append)
    a, b, c = addrs_in_set(cache, 1, 3)
    cache.entry(a)
    cache.entry(b)
    cache.entry(c)
    assert len(displaced) == 1
    assert displaced[0].line_addr == a  # LRU
    assert cache.displacements == 1


def test_touch_refreshes_lru():
    displaced = []
    cache = make(on_displace=displaced.append)
    a, b, c = addrs_in_set(cache, 1, 3)
    cache.entry(a)
    cache.entry(b)
    cache.entry(a)  # refresh
    cache.entry(c)
    assert displaced[0].line_addr == b


def test_different_sets_do_not_interfere():
    cache = make(sets=4, ways=1)
    cache.entry(0)
    cache.entry(1)
    cache.entry(2)
    assert cache.displacements == 0


def test_displaced_entry_retains_sharing_state():
    displaced = []
    cache = make(on_displace=displaced.append)
    a, b, c = addrs_in_set(cache, 0, 3)
    cache.entry(a).sharers.update({3, 5})
    cache.entry(b)
    cache.entry(c)
    assert displaced[0].sharers == {3, 5}


def test_drop_frees_slot():
    cache = make(sets=1, ways=2)
    a, b, c = addrs_in_set(cache, 0, 3)
    cache.entry(a)
    cache.entry(b)
    cache.drop(a)
    cache.entry(c)
    assert cache.displacements == 0


def test_non_power_of_two_sets_rejected():
    with pytest.raises(ValueError):
        DirectoryCache(0, 8, num_sets=3)


def test_entries_in_sets_uses_own_geometry():
    cache = make(sets=4, ways=4)
    cache.entry(0)
    cache.entry(4)
    cache.entry(1)
    selected = cache.entries_in_sets(1 << 0, 4)
    assert {e.line_addr for e in selected} == {0, 4}

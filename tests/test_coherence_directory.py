"""Tests for directory modules."""

import pytest

from repro.coherence.directory import DirectoryEntry, DirectoryModule
from repro.errors import ProtocolError


def test_entry_created_lazily():
    directory = DirectoryModule(0, 8)
    assert directory.peek(5) is None
    entry = directory.entry(5)
    assert directory.peek(5) is entry
    assert directory.entry_count() == 1


def test_add_remove_sharer():
    directory = DirectoryModule(0, 8)
    directory.add_sharer(5, 1)
    directory.add_sharer(5, 2)
    assert directory.entry(5).sharers == {1, 2}
    directory.remove_sharer(5, 1)
    assert directory.entry(5).sharers == {2}


def test_remove_sharer_clears_ownership():
    directory = DirectoryModule(0, 8)
    entry = directory.entry(5)
    entry.make_owner(3)
    directory.remove_sharer(5, 3)
    assert not entry.dirty
    assert entry.owner is None


def test_make_owner_resets_vector():
    entry = DirectoryEntry(1, sharers={0, 1, 2})
    entry.make_owner(1)
    assert entry.sharers == {1}
    assert entry.dirty and entry.owner == 1


def test_false_owner_repair():
    directory = DirectoryModule(0, 8)
    entry = directory.entry(7)
    entry.make_owner(2)
    directory.resolve_false_owner(7, 2)
    assert not entry.dirty
    assert entry.owner is None


def test_false_owner_repair_unknown_line_raises():
    with pytest.raises(ProtocolError):
        DirectoryModule(0, 8).resolve_false_owner(99, 0)


def test_false_owner_repair_wrong_proc_is_noop():
    directory = DirectoryModule(0, 8)
    entry = directory.entry(7)
    entry.make_owner(2)
    directory.resolve_false_owner(7, 3)
    assert entry.owner == 2


def test_entries_in_sets_selects_by_low_bits():
    directory = DirectoryModule(0, 8)
    directory.entry(0x100)  # set 0 for 256 sets
    directory.entry(0x101)  # set 1
    directory.entry(0x201)  # set 1
    selected = directory.entries_in_sets(1 << 1, 256)
    assert {e.line_addr for e in selected} == {0x101, 0x201}


def test_drop():
    directory = DirectoryModule(0, 8)
    directory.entry(5)
    assert directory.drop(5) is not None
    assert directory.peek(5) is None
    assert directory.drop(5) is None


def test_entry_count_and_iteration():
    directory = DirectoryModule(0, 8)
    for i in range(4):
        directory.entry(i)
    assert directory.entry_count() == 4
    assert len(list(directory.entries())) == 4

"""Tests for the MSHR file, driven through its one entry point, admit()."""

import pytest

from repro.memory.mshr import MshrFile


def counts(mshr):
    return mshr.primary_misses, mshr.secondary_misses, mshr.full_stalls


def test_allocate_and_expire():
    mshr = MshrFile(2)
    assert mshr.admit(1, 10.0, 0.0) == 0.0
    assert mshr.admit(1, 10.0, 9.0) == 9.0  # still in flight: merges
    assert mshr.admit(1, 10.0, 10.0) == 10.0  # expired at 10: a new entry
    assert counts(mshr) == (2, 1, 0)


def test_secondary_miss_merges():
    mshr = MshrFile(2)
    assert mshr.admit(1, 10.0, 0.0) == 0.0
    assert mshr.admit(1, 99.0, 1.0) == 1.0  # merges, fetch not delayed
    assert mshr.secondary_misses == 1
    assert mshr.primary_misses == 1
    # The merge kept the first entry's completion: the line expires at
    # 10, not at 100.
    assert mshr.admit(1, 5.0, 10.0) == 10.0
    assert mshr.primary_misses == 2


def test_earliest_free_when_full():
    mshr = MshrFile(2)
    mshr.admit(1, 10.0, 0.0)
    mshr.admit(2, 20.0, 0.0)
    assert mshr.admit(3, 7.0, 5.0) == 10.0  # stalls to the earliest completion
    assert mshr.full_stalls == 1


def test_earliest_free_when_space():
    mshr = MshrFile(2)
    mshr.admit(1, 10.0, 0.0)
    assert mshr.admit(3, 7.0, 5.0) == 5.0
    assert mshr.full_stalls == 0


def test_full_file_stalls_until_an_entry_expires():
    """A full file never overfills: the miss waits for a free entry."""
    mshr = MshrFile(1)
    mshr.admit(1, 10.0, 0.0)
    assert mshr.admit(2, 10.0, 5.0) == 10.0
    # Line 2 now holds the only entry, completing at 20.
    assert mshr.admit(3, 10.0, 12.0) == 20.0
    assert counts(mshr) == (3, 0, 2)


def test_merges_only_while_in_flight():
    """A line merges until its completion time, then misses afresh."""
    mshr = MshrFile(4)
    mshr.admit(7, 30.0, 0.0)
    assert mshr.admit(7, 1.0, 10.0) == 10.0
    assert mshr.admit(8, 1.0, 10.0) == 10.0
    assert counts(mshr) == (2, 1, 0)
    mshr.admit(7, 1.0, 30.0)
    assert counts(mshr) == (3, 1, 0)


def test_capacity_validation():
    with pytest.raises(ValueError):
        MshrFile(0)


@pytest.mark.parametrize(
    "start,fetch,stalls",
    [(0.0, 10.0, 1), (5.0, 10.0, 1), (10.0, 10.0, 0), (15.0, 15.0, 0), (25.0, 25.0, 0)],
    ids=["0.0", "5.0", "10.0", "15.0", "25.0"],
)
@pytest.mark.parametrize("line", [1, 3])
def test_admit_is_earliest_free_then_allocate(start, fetch, stalls, line):
    """admit() first waits for a free entry, then allocates or merges.

    The file is full until 10, so even line 1, in flight until then,
    stalls to 10 and, being expired by then, allocates afresh.
    """
    mshr = MshrFile(2)
    mshr.admit(1, 10.0, 0.0)
    mshr.admit(2, 20.0, 0.0)
    assert mshr.admit(line, 7.0, start) == fetch
    assert counts(mshr) == (3, 0, stalls)

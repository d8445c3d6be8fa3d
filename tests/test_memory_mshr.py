"""Tests for the MSHR file."""

import pytest

from repro.memory.mshr import MshrFile


def test_allocate_and_expire():
    mshr = MshrFile(2)
    mshr.allocate(1, completion_time=10.0, now=0.0)
    assert mshr.outstanding(5.0) == 1
    assert mshr.outstanding(10.0) == 0


def test_secondary_miss_merges():
    mshr = MshrFile(2)
    t = mshr.allocate(1, completion_time=10.0, now=0.0)
    merged = mshr.allocate(1, completion_time=99.0, now=1.0)
    assert merged == t == 10.0
    assert mshr.secondary_misses == 1
    assert mshr.primary_misses == 1


def test_earliest_free_when_full():
    mshr = MshrFile(2)
    mshr.allocate(1, 10.0, 0.0)
    mshr.allocate(2, 20.0, 0.0)
    assert mshr.earliest_free(5.0) == 10.0
    assert mshr.full_stalls == 1


def test_earliest_free_when_space():
    mshr = MshrFile(2)
    mshr.allocate(1, 10.0, 0.0)
    assert mshr.earliest_free(5.0) == 5.0


def test_allocate_into_full_raises():
    mshr = MshrFile(1)
    mshr.allocate(1, 10.0, 0.0)
    with pytest.raises(RuntimeError):
        mshr.allocate(2, 20.0, 5.0)


def test_in_flight_and_completion_time():
    """Queries use monotonically non-decreasing `now`."""
    mshr = MshrFile(4)
    mshr.allocate(7, 30.0, 0.0)
    assert mshr.in_flight(7, 10.0)
    assert mshr.completion_time(7, 10.0) == 30.0
    assert mshr.completion_time(8, 10.0) == 10.0
    assert not mshr.in_flight(7, 30.0)


def test_capacity_validation():
    with pytest.raises(ValueError):
        MshrFile(0)


def test_clear():
    mshr = MshrFile(2)
    mshr.allocate(1, 10.0, 0.0)
    mshr.clear()
    assert mshr.outstanding(0.0) == 0


@pytest.mark.parametrize("start", [0.0, 5.0, 10.0, 15.0, 25.0])
@pytest.mark.parametrize("line", [1, 3])
def test_admit_is_earliest_free_then_allocate(start, line):
    """admit() matches the two-call protocol it replaces, stalls included."""

    def filled():
        mshr = MshrFile(2)
        mshr.allocate(1, 10.0, 0.0)
        mshr.allocate(2, 20.0, 0.0)
        return mshr

    reference = filled()
    fetch = max(start, reference.earliest_free(start))
    if not reference.in_flight(line, fetch):
        fetch = max(fetch, reference.earliest_free(fetch))
    reference.allocate(line, fetch + 7.0, fetch)
    admitted = filled()
    assert admitted.admit(line, 7.0, start) == fetch
    for mshr in (reference, admitted):
        assert mshr.outstanding(fetch) == reference.outstanding(fetch)
    for addr in (1, 2, 3):
        assert admitted.completion_time(addr, fetch) == reference.completion_time(
            addr, fetch
        )
    assert (
        admitted.full_stalls, admitted.primary_misses, admitted.secondary_misses
    ) == (
        reference.full_stalls, reference.primary_misses, reference.secondary_misses
    )

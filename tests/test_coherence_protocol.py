"""Tests for the demand-access coherence controller."""

import pytest

from repro.coherence.protocol import CoherenceController
from repro.interconnect.traffic import TrafficClass
from repro.memory.cache import LineState
from repro.params import paper_config


@pytest.fixture
def ctrl():
    return CoherenceController(paper_config())


L1_RT, L2_RT, MEM_RT = 2, 13, 300


def fills(ctrl):
    """Fills so far by supplying level (an L1 hit is no fill)."""
    return {
        level: ctrl.stats.value(f"coherence.fill.{level}")
        for level in ("l2", "remote", "mem")
    }


class TestReads:
    def test_cold_read_goes_to_memory(self, ctrl):
        latency = ctrl.read(0, 0x1000)
        assert fills(ctrl) == {"l2": 0, "remote": 0, "mem": 1}
        assert latency >= MEM_RT

    def test_second_read_hits_l1(self, ctrl):
        ctrl.read(0, 0x1000)
        before = fills(ctrl)
        latency = ctrl.read(0, 0x1000)
        assert fills(ctrl) == before
        assert latency == L1_RT

    def test_other_proc_read_hits_l2(self, ctrl):
        ctrl.read(0, 0x1000)
        latency = ctrl.read(1, 0x1000)
        assert fills(ctrl) == {"l2": 1, "remote": 0, "mem": 1}
        assert L2_RT <= latency < MEM_RT

    def test_read_registers_sharer(self, ctrl):
        ctrl.read(3, 0x1000)
        assert 3 in ctrl.home_directory(0x1000).entry(0x1000).sharers

    def test_read_from_dirty_owner_three_hop(self, ctrl):
        ctrl.write(0, 0x1000)
        ctrl.read(1, 0x1000)
        assert fills(ctrl) == {"l2": 0, "remote": 1, "mem": 1}
        entry = ctrl.home_directory(0x1000).entry(0x1000)
        assert not entry.dirty
        assert entry.sharers == {0, 1}
        # Owner downgraded to Shared.
        assert ctrl.l1s[0].probe(0x1000).state is LineState.SHARED


class TestWrites:
    def test_write_makes_owner(self, ctrl):
        ctrl.write(0, 0x1000)
        entry = ctrl.home_directory(0x1000).entry(0x1000)
        assert entry.dirty and entry.owner == 0
        assert ctrl.l1s[0].probe(0x1000).state is LineState.MODIFIED

    def test_write_invalidates_sharers(self, ctrl):
        ctrl.read(1, 0x1000)
        ctrl.read(2, 0x1000)
        latency, inv_latency = ctrl.write(0, 0x1000)
        assert 0 < inv_latency <= latency
        assert ctrl.l1s[1].probe(0x1000) is None
        assert ctrl.l1s[2].probe(0x1000) is None
        entry = ctrl.home_directory(0x1000).entry(0x1000)
        assert entry.sharers == {0}

    def test_upgrade_from_shared(self, ctrl):
        ctrl.read(0, 0x1000)
        ctrl.read(1, 0x1000)
        before = fills(ctrl)
        latency, inv_latency = ctrl.write(0, 0x1000)
        assert fills(ctrl) == before  # served by the L1 copy
        assert inv_latency > 0
        assert latency == L1_RT + inv_latency
        assert ctrl.l1s[1].probe(0x1000) is None

    def test_write_hit_on_owned_line_is_cheap(self, ctrl):
        ctrl.write(0, 0x1000)
        latency, inv_latency = ctrl.write(0, 0x1000)
        assert latency == L1_RT
        assert inv_latency == 0

    def test_invalidation_traffic_metered(self, ctrl):
        ctrl.read(1, 0x1000)
        before = ctrl.network.meter.bytes[TrafficClass.INV]
        ctrl.write(0, 0x1000)
        assert ctrl.network.meter.bytes[TrafficClass.INV] > before


class TestBulkFetch:
    def test_fetch_for_chunk_is_read_request(self, ctrl):
        """Even a write miss only registers the requester as a sharer."""
        ctrl.fetch_for_chunk(0, 0x1000)
        entry = ctrl.home_directory(0x1000).entry(0x1000)
        assert not entry.dirty
        assert entry.sharers == {0}
        assert ctrl.l1s[0].probe(0x1000).state is LineState.SHARED

    def test_fetch_respects_pinned_lines(self, ctrl):
        cache = ctrl.l1s[0]
        set_index = cache.set_index(0x2000)
        conflicting = [set_index + way * cache.num_sets for way in range(1, 5)]
        for line in conflicting:
            ctrl.fetch_for_chunk(0, line)
        assert ctrl.stats.value("coherence.l1_set_overflows") == 0
        target = 0x2000 + cache.num_sets * 64
        ctrl.fetch_for_chunk(0, target, pinned=lambda addr: True)
        assert ctrl.stats.value("coherence.l1_set_overflows") == 1
        assert cache.probe(target) is None

    def test_would_overflow_l1(self, ctrl):
        cache = ctrl.l1s[0]
        base = 0x3000
        lines = [base + way * cache.num_sets for way in range(4)]
        for line in lines:
            ctrl.fetch_for_chunk(0, line)
        target = base + 10 * cache.num_sets
        assert ctrl.would_overflow_l1(0, target, pinned=lambda addr: True)
        assert not ctrl.would_overflow_l1(0, target, pinned=lambda addr: False)


class TestEvictions:
    def test_clean_eviction_is_silent(self, ctrl):
        """Directory keeps the sharer bit (load-bearing for BulkSC)."""
        cache = ctrl.l1s[0]
        set_index = cache.set_index(0x4000)
        lines = [0x4000 + way * cache.num_sets for way in range(5)]
        for line in lines:
            ctrl.read(0, line)
        evicted = [line for line in lines if cache.probe(line) is None]
        assert evicted  # 4-way set: one must have gone
        for line in evicted:
            assert 0 in ctrl.home_directory(line).entry(line).sharers

    def test_dirty_eviction_writes_back_but_keeps_sharer(self, ctrl):
        cache = ctrl.l1s[0]
        lines = [0x5000 + way * cache.num_sets for way in range(5)]
        ctrl.write(0, lines[0])
        for line in lines[1:]:
            ctrl.write(0, line)
        evicted = [line for line in lines if cache.probe(line) is None]
        assert evicted
        for line in evicted:
            entry = ctrl.home_directory(line).entry(line)
            assert entry.owner != 0 or not entry.dirty
            assert 0 in entry.sharers

    def test_eviction_observer_fires(self, ctrl):
        seen = []
        ctrl.eviction_observer = lambda proc, line: seen.append((proc, line))
        cache = ctrl.l1s[0]
        lines = [0x6000 + way * cache.num_sets for way in range(5)]
        for line in lines:
            ctrl.read(0, line)
        assert len(seen) == 1


class TestBulkHelpers:
    def test_invalidate_in_cache(self, ctrl):
        ctrl.read(0, 0x1000)
        assert ctrl.invalidate_in_cache(0, 0x1000)
        assert not ctrl.invalidate_in_cache(0, 0x1000)
        entry = ctrl.home_directory(0x1000).entry(0x1000)
        assert 0 not in entry.sharers

    def test_mark_dirty_owner(self, ctrl):
        ctrl.fetch_for_chunk(0, 0x1000)
        ctrl.mark_dirty_owner(0, 0x1000)
        assert ctrl.l1s[0].probe(0x1000).state is LineState.MODIFIED

    def test_writeback_line_downgrades(self, ctrl):
        ctrl.write(0, 0x1000)
        ctrl.writeback_line(0, 0x1000)
        assert ctrl.l1s[0].probe(0x1000).state is LineState.SHARED
        entry = ctrl.home_directory(0x1000).entry(0x1000)
        assert not entry.dirty
        assert 0 in entry.sharers

    def test_writeback_clean_line_is_noop(self, ctrl):
        ctrl.read(0, 0x1000)
        before = ctrl.network.meter.total_bytes
        ctrl.writeback_line(0, 0x1000)
        assert ctrl.network.meter.total_bytes == before


class TestFalseOwner:
    def test_false_owner_repaired_on_fetch(self, ctrl):
        """Aliasing can mark a proc owner of a line it never wrote."""
        directory = ctrl.home_directory(0x1000)
        entry = directory.entry(0x1000)
        entry.make_owner(2)  # but proc 2's cache does not have it
        ctrl.read(1, 0x1000)
        assert fills(ctrl) == {"l2": 0, "remote": 0, "mem": 1}
        assert entry.owner is None
        assert ctrl.stats.value("coherence.false_owner_repairs") == 1

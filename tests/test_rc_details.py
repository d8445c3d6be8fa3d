"""Detailed tests for RC store-buffer mechanics."""

import pytest

from repro.cpu.isa import Compute, Fence, Load, Store
from repro.cpu.thread import ThreadProgram
from repro.memory.address import AddressMap, AddressSpace
from repro.params import rc_config, tso_config
from repro.system import Machine, run_workload


def make_space():
    space = AddressSpace(AddressMap(8, 1))
    space.allocate("data", 65536)
    return space


def run_ops(config, programs_ops):
    programs = [ThreadProgram(ops, name=f"t{i}") for i, ops in enumerate(programs_ops)]
    return run_workload(config, programs, make_space())


class TestForwarding:
    def test_newest_buffered_store_wins(self):
        result = run_ops(
            rc_config(), [[Store(8, 1), Store(8, 2), Load("r", 8), Compute(500)]]
        )
        assert result.registers[0]["r"] == 2

    def test_forwarding_across_addresses(self):
        result = run_ops(
            rc_config(),
            [[Store(8, 1), Store(16, 2), Load("a", 8), Load("b", 16), Compute(500)]],
        )
        assert result.registers[0]["a"] == 1
        assert result.registers[0]["b"] == 2

    def test_unbuffered_address_reads_memory(self):
        result = run_ops(rc_config(), [[Store(8, 1), Load("r", 16)]])
        assert result.registers[0]["r"] == 0


class TestDrainOrdering:
    def test_relaxed_drains_complete_out_of_order(self):
        """A hit store after a miss store becomes visible first under RC."""
        machine_cfg = rc_config()
        space = make_space()
        warm = 8
        cold = 8 * 64 * 10
        ops = [
            Store(warm, 0),  # own the warm line
            Compute(2000),
            Store(cold, 1),  # miss: drains ~300 cycles later
            Store(warm, 2),  # hit: drains almost immediately
            Compute(4000),
        ]
        result = run_workload(machine_cfg, [ThreadProgram(ops)], space)
        stores = [
            (e.time, e.word_addr) for e in result.history.events() if e.is_store
        ]
        warm2_time = [t for t, a in stores if a == warm][-1]
        cold_time = [t for t, a in stores if a == cold][0]
        assert warm2_time < cold_time

    def test_tso_drains_stay_in_order(self):
        space = make_space()
        warm = 8
        cold = 8 * 64 * 10
        ops = [
            Store(warm, 0),
            Compute(2000),
            Store(cold, 1),
            Store(warm, 2),
            Compute(4000),
        ]
        result = run_workload(tso_config(), [ThreadProgram(ops)], space)
        stores = [
            (e.time, e.word_addr, e.program_index)
            for e in result.history.events()
            if e.is_store
        ]
        times_by_index = [t for t, __, __ in sorted(stores, key=lambda s: s[2])]
        assert times_by_index == sorted(times_by_index)


class TestFenceSemantics:
    def test_fence_applies_everything_before_it(self):
        config = rc_config()
        space = make_space()
        machine = Machine(
            config,
            [ThreadProgram([Store(8, 7), Store(16, 9), Fence(), Compute(5000)])],
            space,
        )
        for driver in machine.drivers:
            driver.start()
        machine.sim.run(until=50.0)
        # The fence executed within the first cycles; values are visible
        # long before their natural ~300-cycle drains.
        assert machine.memory.peek(8) == 7
        assert machine.memory.peek(16) == 9
        machine.sim.run()  # drain the rest

    def test_release_carries_release_semantics(self):
        """All buffered stores become visible before the lock release."""
        from repro.cpu.isa import LockAcquire, LockRelease

        config = rc_config()
        result = run_ops(
            config,
            [[LockAcquire(0), Store(8, 5), LockRelease(0), Compute(2000)]],
        )
        events = list(result.history.events())
        release_index = next(
            i for i, e in enumerate(events) if e.is_store and e.word_addr == 0 and e.value == 0
        )
        data_index = next(
            i for i, e in enumerate(events) if e.is_store and e.word_addr == 8
        )
        assert data_index < release_index

    @pytest.mark.parametrize("factory", [rc_config, tso_config])
    def test_release_drains_an_older_miss_first(self, factory):
        """A release to a cached lock line still waits for an older miss.

        Buffered as a plain store, the release (an L1 hit) would drain
        before the older store's miss under RC.
        """
        from repro.cpu.isa import LockRelease

        far = 8 * 4096
        result = run_ops(
            factory(),
            [[Load("lock", 0), Store(far, 5), LockRelease(0), Compute(2000)]],
        )
        stores = [e.word_addr for e in result.history.events() if e.is_store]
        assert stores == [far, 0]
        assert result.stat("proc0.store_buffer_stalls") == 0


class TestBufferCapacity:
    def test_capacity_limits_outstanding_stores(self):
        config = rc_config()
        capacity = config.processor.store_queue_entries
        ops = [Store(8 * 64 * i, i) for i in range(capacity * 2)]
        result = run_ops(config, [ops])
        assert result.stat("proc0.store_buffer_stalls") > 0
        # Everything still drains by the end.
        for i in range(capacity * 2):
            assert result.memory.peek(8 * 64 * i) == i

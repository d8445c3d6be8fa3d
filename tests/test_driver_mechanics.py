"""Tests for the generic driver event-loop mechanics."""

import pytest

from repro.cpu.driver import DriverState
from repro.coherence.protocol import CoherenceController
from repro.core.driver import BulkSCDriver
from repro.cpu.isa import Barrier, Compute, Load, SpinUntil, Store
from repro.cpu.thread import ThreadProgram
from repro.memory.address import AddressMap, AddressSpace
from repro.params import NAMED_CONFIGS, sc_config
from repro.system import Machine


def make_machine(programs_ops, config=None):
    config = config or sc_config()
    space = AddressSpace(AddressMap(8, 1))
    space.allocate("data", 4096)
    programs = [ThreadProgram(ops, name=f"t{i}") for i, ops in enumerate(programs_ops)]
    return Machine(config, programs, space)


class TestBatching:
    def test_batches_preserve_program_effects(self):
        """Many tiny ops inside one batch execute exactly once each."""
        ops = []
        for i in range(200):
            ops.append(Store(8 * (i % 16), i))
        machine = make_machine([ops])
        machine.run()
        assert machine.threads[0].retired_instructions == 200

    def test_batch_boundary_yields_to_other_processors(self):
        """Two CPU-bound threads interleave instead of running serially."""
        a = [Compute(10) for __ in range(100)]
        b = [Compute(10) for __ in range(100)]
        machine = make_machine([a, b])
        result = machine.run()
        # Both finish at roughly the same (parallel) time, not 2x.
        assert abs(result.per_proc_finish[0] - result.per_proc_finish[1]) < 50


class TestDriverStates:
    def test_finished_drivers_stay_finished(self):
        machine = make_machine([[Compute(5)]])
        machine.run()
        driver = machine.drivers[0]
        assert driver.state is DriverState.FINISHED
        assert driver.finish_time is not None

    def test_idle_processors_finish_immediately(self):
        machine = make_machine([[Compute(5)]])
        result = machine.run()
        assert result.per_proc_finish[7] == 0.0

    def test_blocked_state_visible_mid_run(self):
        machine = make_machine(
            [
                [Barrier(1, 2)],
                [Compute(5000), Barrier(1, 2)],
            ]
        )
        for driver in machine.drivers:
            driver.start()
        machine.sim.run(until=100.0)
        assert machine.drivers[0].state is DriverState.BLOCKED
        machine.sim.run()
        assert machine.drivers[0].state is DriverState.FINISHED

    def test_wake_after_finish_raises(self):
        from repro.errors import SimulationError

        machine = make_machine([[Compute(5)]])
        machine.run()
        with pytest.raises(SimulationError):
            machine.drivers[0].wake_retry()


class TestSpinWake:
    def test_spin_wakes_exactly_once(self):
        machine = make_machine(
            [
                [SpinUntil(8, 7), Compute(10)],
                [Compute(200), Store(8, 7), Compute(50)],
            ]
        )
        result = machine.run()
        assert machine.drivers[0].state is DriverState.FINISHED
        assert result.stat("proc0.flag_spins") >= 1


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestInlineMissPath:
    """The run loops fill a plain miss with one coherence call."""

    #: Loads to 32 distinct lines, then stores to 32 more: all cold misses.
    OPS = [Load(f"r{i}", 64 * i) for i in range(32)] + [
        Store(64 * (32 + i), i) for i in range(32)
    ]

    @pytest.mark.parametrize("config_name", ["BSCdypvt", "BSCexact"])
    def test_bulksc_plain_miss_skips_bulk_fetch(self, monkeypatch, config_name):
        fetches = _count_calls(monkeypatch, CoherenceController, "fetch_for_chunk")
        intercepted = _count_calls(monkeypatch, BulkSCDriver, "bulk_fetch")
        result = make_machine([self.OPS], NAMED_CONFIGS[config_name]()).run()
        assert result.stat("coherence.fill.mem") == 64
        assert len(fetches) == 64
        assert intercepted == []

    @pytest.mark.parametrize("config_name", ["SC", "RC", "SC++", "TSO"])
    def test_baseline_plain_load_miss_skips_the_hook(self, monkeypatch, config_name):
        machine = make_machine([self.OPS], NAMED_CONFIGS[config_name]())
        reads = _count_calls(monkeypatch, CoherenceController, "read")
        hooks = _count_calls(monkeypatch, type(machine.drivers[0]), "_load")
        result = machine.run()
        assert result.stat("coherence.fill.mem") == 64
        assert len(reads) == 32
        assert hooks == []

"""System tests with multiple directory modules and distributed arbiters."""

from dataclasses import replace

import pytest

from repro.cpu.isa import Compute, Load, Store
from repro.cpu.thread import ThreadProgram
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.memory.address import AddressMap, AddressSpace
from repro.params import ArbiterTopology, bsc_dypvt, rc_config
from repro.replay.workload import build_workload, litmus_spec
from repro.system import Machine, run_workload
from repro.verify.sc_checker import check_sequential_consistency
from test_interpreter_equivalence import _run_digest


def multi_dir_config(num_dirs=4, distributed=False, seed=0):
    cfg = replace(bsc_dypvt(seed=seed), num_directories=num_dirs)
    if distributed:
        cfg = cfg.with_bulksc(arbiter_topology=ArbiterTopology.DISTRIBUTED)
    return cfg.validate()


def make_space(config):
    space = AddressSpace(
        AddressMap(config.memory.words_per_line, config.num_directories)
    )
    space.allocate("data", 16384)
    return space


def spread_ops(count=24):
    """Stores/loads spread across all directory interleaves."""
    ops = []
    for i in range(count):
        ops.append(Store(8 * i, i + 1))
        ops.append(Compute(10))
    for i in range(count):
        ops.append(Load(f"r{i}", 8 * i))
    return ops


class TestCentralArbiterMultipleDirectories:
    def test_values_and_sc(self):
        cfg = multi_dir_config(4, distributed=False)
        result = run_workload(cfg, [ThreadProgram(spread_ops())], make_space(cfg))
        for i in range(24):
            assert result.registers[0][f"r{i}"] == i + 1
        assert check_sequential_consistency(result.history).ok

    def test_lines_interleave_across_modules(self):
        cfg = multi_dir_config(4)
        machine = Machine(cfg, [ThreadProgram(spread_ops())], make_space(cfg))
        machine.run()
        populated = [d for d in machine.coherence.directories if d.entry_count() > 0]
        assert len(populated) == 4

    def test_each_module_has_a_dirbdm(self):
        cfg = multi_dir_config(4)
        machine = Machine(cfg, [], make_space(cfg))
        assert len(machine.dirbdms) == 4


class TestDistributedArbiter:
    def test_values_and_sc(self):
        cfg = multi_dir_config(4, distributed=True)
        result = run_workload(cfg, [ThreadProgram(spread_ops())], make_space(cfg))
        for i in range(24):
            assert result.registers[0][f"r{i}"] == i + 1
        assert check_sequential_consistency(result.history).ok

    def test_multi_range_commits_use_g_arbiter(self):
        cfg = multi_dir_config(4, distributed=True)
        # One chunk writing lines homed at every module.
        ops = []
        for i in range(8):
            ops.append(Store(8 * i, i))
        result = run_workload(cfg, [ThreadProgram(ops)], make_space(cfg))
        assert result.stat("commit.g_arbiter_transactions") >= 1

    def test_multiprocessor_contention_stays_sc(self):
        for seed in range(2):
            cfg = multi_dir_config(4, distributed=True, seed=seed)
            programs = []
            for proc in range(4):
                ops = [Compute(5 + proc * 11)]
                for i in range(15):
                    ops.append(Store(8 * (i % 6), proc * 100 + i))
                    ops.append(Load("r", 8 * ((i + 1) % 6)))
                    ops.append(Compute(12))
                programs.append(ThreadProgram(ops, name=f"t{proc}"))
            result = run_workload(cfg, programs, make_space(cfg))
            check = check_sequential_consistency(result.history)
            assert check.ok, check.reason

    def test_distributed_matches_central_functionally(self):
        """Same program, same final state under both arbiter topologies."""
        ops = spread_ops(12)
        central_cfg = multi_dir_config(4, distributed=False)
        dist_cfg = multi_dir_config(4, distributed=True)
        central = run_workload(
            central_cfg, [ThreadProgram(ops)], make_space(central_cfg)
        )
        distributed = run_workload(
            dist_cfg, [ThreadProgram(ops)], make_space(dist_cfg)
        )
        assert central.registers[0] == distributed.registers[0]
        assert central.memory.nonzero_words() == distributed.memory.nonzero_words()


class TestAddBackWhileArbitrating:
    """A Private Buffer add-back (Section 5.2) can grow the W of a chunk
    that is already arbitrating; its ranges must follow."""

    def test_serialized_ranges_cover_the_grown_w(self):
        cfg = multi_dir_config(2, distributed=True)
        cfg = cfg.with_bulksc(chunk_size_instructions=80)
        owner = [op for i in range(1, 25) for op in (Store(8, i), Compute(30))]
        widened = []
        for delay in range(400, 480, 8):
            prober = [Compute(delay), Load("r", 8), Compute(10)]
            machine = Machine(
                cfg, [ThreadProgram(owner), ThreadProgram(prober)], make_space(cfg)
            )
            engine = machine.commit_engine
            resolve = engine.reresolve_ranges

            def counting_resolve(chunk, resolve=resolve):
                widened.append(chunk)
                resolve(chunk)

            engine.reresolve_ranges = counting_resolve

            def check(ev, p, *payload):
                if ev == "commit.serialize":
                    (txn,) = payload
                    chunk = txn.chunk
                    assert txn.ranges == machine.arbiter.ranges_of(
                        chunk.true_written_lines, chunk.true_read_lines
                    )

            machine.subscribe(check)
            result = machine.run()
            assert check_sequential_consistency(result.history).ok
        assert widened


class TestCentralIsOneRangeDistributed:
    """The central arbiter is the one-range case of the distributed one."""

    @staticmethod
    def _run(topology, plan, test_name):
        config = bsc_dypvt(seed=0).with_bulksc(
            arbiter_topology=topology, chunk_size_instructions=4
        )
        programs, space, __ = build_workload(litmus_spec(test_name, (1, 60)), config)
        injector = FaultInjector(FaultPlan.parse(plan, rate=0.05), seed=7, label="one")
        result = run_workload(
            config, programs, space, record_history=True, fault_injector=injector
        )
        return _run_digest(result), injector.crashes_fired

    @pytest.mark.parametrize(
        "plan", ["", "arbiter-crash"], ids=["fault-free", "arbiter-crash"]
    )
    @pytest.mark.parametrize("test_name", ["MP", "IRIW"])
    def test_identical_fingerprints(self, plan, test_name):
        central = self._run(ArbiterTopology.CENTRAL, plan, test_name)
        one_range = self._run(ArbiterTopology.DISTRIBUTED, plan, test_name)
        assert central == one_range
        assert (central[1] > 0) == bool(plan)


class TestBaselinesWithMultipleDirectories:
    def test_rc_works_with_four_modules(self):
        cfg = replace(rc_config(), num_directories=4).validate()
        result = run_workload(cfg, [ThreadProgram(spread_ops())], make_space(cfg))
        for i in range(24):
            assert result.registers[0][f"r{i}"] == i + 1

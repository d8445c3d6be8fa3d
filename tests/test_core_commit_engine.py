"""Unit-level tests for the commit engine's protocol steps."""

from dataclasses import replace

import pytest

from repro.core.chunk import ChunkState
from repro.cpu.isa import Compute, Load, Store
from repro.cpu.thread import ThreadProgram
from repro.errors import ProtocolError
from repro.memory.address import AddressMap, AddressSpace
from repro.params import bsc_base, bsc_dypvt, bsc_stpvt
from repro.system import Machine


def make_machine(config, programs_ops):
    space = AddressSpace(
        AddressMap(config.memory.words_per_line, config.num_directories)
    )
    space.allocate("data", 8192)
    programs = [ThreadProgram(ops, name=f"t{i}") for i, ops in enumerate(programs_ops)]
    return Machine(config, programs, space)


class TestArbitrationTiming:
    def test_commit_pays_arbitration_latency(self):
        """The first commit cannot be visible before the 30-cycle round."""
        cfg = bsc_dypvt()
        machine = make_machine(cfg, [[Store(8, 1)]])
        machine.run()
        store_events = [e for e in machine.history.events() if e.is_store]
        assert store_events[0].time >= cfg.bulksc.commit_arbitration_latency

    def test_submitting_non_complete_chunk_raises(self):
        cfg = bsc_dypvt()
        machine = make_machine(cfg, [[Store(8, 1)]])
        machine.run()
        driver = machine.drivers[0]
        # Fabricate an executing chunk and try to submit it directly.
        driver._ensure_chunk()
        with pytest.raises(ProtocolError):
            machine.commit_engine.submit(
                driver._current, at_time=machine.sim.now, on_committed=lambda c: None
            )


class TestRangeResolution:
    def test_central_chunks_are_all_in_range_zero(self):
        """One range: ``submit`` resolves (0,) whatever lines were touched."""
        machine = make_machine(replace(bsc_dypvt(), num_directories=2), [[Store(8, 1)]])
        driver = machine.drivers[0]
        driver._ensure_chunk()
        chunk = driver._current
        chunk.true_written_lines.update({2, 3})
        chunk.mark(ChunkState.COMPLETE)
        txn = machine.commit_engine.submit(chunk, 0.0, on_committed=lambda c: None)
        assert txn.ranges == (0,)


class TestCommitAccounting:
    def test_grants_equal_visible_commits(self):
        cfg = bsc_dypvt()
        ops = []
        for i in range(20):
            ops.append(Store(8 * i, i))
            ops.append(Compute(30))
        machine = make_machine(cfg, [ops])
        result = machine.run()
        assert result.stat("commit.grants") == result.stat("commit.visible")
        assert result.stat("commit.completed") == result.stat("commit.grants")

    def test_empty_w_commits_skip_directory(self):
        """A private-only chunk commits without expansion lookups."""
        cfg = bsc_dypvt().with_bulksc(chunk_size_instructions=80)
        ops = []
        for i in range(1, 30):
            ops.append(Store(8, i))
            ops.append(Compute(40))
        machine = make_machine(cfg, [ops])
        result = machine.run()
        assert result.stat("commit.empty_w_commits") >= 1
        # Far fewer expansions than commits (empty-W ones skip it).
        assert result.stats.get("commit.expansion_lookups.count", 0) < result.stat(
            "commit.visible"
        )

    def test_wpriv_expansion_only_in_static_mode(self):
        space_ops = [[Store(8, 1), Compute(20)]]
        base = make_machine(bsc_base(), space_ops)
        base.run()
        assert base.stats.value("commit.wpriv_expansions") == 0


class TestStaticPrivateCommit:
    def test_wpriv_sent_to_directory_on_grant(self):
        cfg = bsc_stpvt()
        space = AddressSpace(
            AddressMap(cfg.memory.words_per_line, cfg.num_directories)
        )
        space.allocate("shared", 1024)
        stack = space.allocate("stack_0", 256, private_to=0)
        ops = []
        for i in range(1, 10):
            ops.append(Store(stack.start_word, i))
            ops.append(Compute(20))
        machine = Machine(cfg, [ThreadProgram(ops)], space)
        result = machine.run()
        assert result.stat("commit.wpriv_expansions") >= 1
        # Coherence of private data: the directory knows the owner.
        line = machine.coherence.address_map.line_of(stack.start_word)
        entry = machine.coherence.home_directory(line).peek(line)
        assert entry is not None


class TestReadDisableWindow:
    def test_read_disable_registered_and_released(self):
        cfg = bsc_dypvt()
        ops = [Store(8, 1), Compute(10)]
        machine = make_machine(cfg, [ops])
        machine.run()
        # After the run every commit released its read-disable.
        assert machine.dirbdms[0].active_commits == 0


class TestChunkStateMachine:
    def test_committed_chunks_final(self):
        cfg = bsc_dypvt()
        machine = make_machine(cfg, [[Store(8, 1), Load("r", 8)]])
        machine.run()
        driver = machine.drivers[0]
        assert driver._current is None or driver._current.is_empty
        assert driver._commit_fifo == type(driver._commit_fifo)()
        assert driver._arbitrating is None

    def test_chunk_ids_monotone_per_processor(self):
        cfg = bsc_dypvt().with_bulksc(chunk_size_instructions=20)
        ops = [Compute(10) for __ in range(20)] + [Store(8, 1)]
        machine = make_machine(cfg, [ops])
        machine.run()
        ids = [
            e.chunk_id
            for e in machine.history.events()
            if e.proc == 0 and e.chunk_id is not None
        ]
        assert ids == sorted(ids)

"""Tests for the analysis tools (chunk tracer, run reports)."""

import pytest

from repro.cpu.isa import Compute, Load, Store
from repro.cpu.thread import ThreadProgram
from repro.memory.address import AddressMap, AddressSpace
from repro.params import bsc_dypvt, rc_config
from repro.replay.recorder import TraceRecorder
from repro.system import Machine, run_workload
from repro.tools import ChunkTracer, summarize_run


def make_machine(config, programs_ops):
    space = AddressSpace(
        AddressMap(config.memory.words_per_line, config.num_directories)
    )
    space.allocate("data", 4096)
    programs = [ThreadProgram(ops, name=f"t{i}") for i, ops in enumerate(programs_ops)]
    return Machine(config, programs, space)


class TestChunkTracer:
    def test_records_full_lifecycle(self):
        cfg = bsc_dypvt().with_bulksc(chunk_size_instructions=30)
        machine = make_machine(cfg, [[Store(8, 1), Compute(60), Store(16, 2)]])
        tracer = ChunkTracer.attach(machine)
        machine.run()
        assert tracer.count("start") >= 1
        assert tracer.count("close") >= 1
        assert tracer.count("grant") >= 1
        assert tracer.count("commit") >= 1

    def test_trace_does_not_change_results(self):
        cfg = bsc_dypvt()
        ops = [[Store(8, 5), Load("r", 8), Compute(50)]]
        plain = make_machine(cfg, ops)
        plain_result = plain.run()
        traced = make_machine(bsc_dypvt(), ops)
        ChunkTracer.attach(traced)
        traced_result = traced.run()
        assert plain_result.cycles == traced_result.cycles
        assert plain_result.registers == traced_result.registers

    def test_squash_events_recorded(self):
        cfg = bsc_dypvt(seed=1).with_bulksc(chunk_size_instructions=50)
        programs = []
        for proc in range(2):
            ops = [Compute(3 + proc)]
            for i in range(20):
                ops.append(Store(8, proc * 100 + i))
                ops.append(Load("r", 8))
                ops.append(Compute(10))
            programs.append(ops)
        total = 0
        for seed in range(3):
            machine = make_machine(bsc_dypvt(seed=seed), programs)
            tracer = ChunkTracer.attach(machine)
            machine.run()
            total += tracer.count("squash")
        assert total > 0

    def test_shares_the_event_stream_with_a_recorder(self):
        """Two subscribers on one machine see the same chunk lifecycle."""
        programs = []
        for proc in range(2):
            ops = [Compute(3 + proc)]
            for i in range(20):
                ops += [Store(8, proc * 100 + i), Load("r", 8), Compute(10)]
            programs.append(ops)
        config = bsc_dypvt(seed=2).with_bulksc(chunk_size_instructions=50)

        def run(with_recorder):
            machine = make_machine(config, programs)
            recorder = TraceRecorder.attach(machine, {}) if with_recorder else None
            tracer = ChunkTracer.attach(machine)
            machine.run()
            return tracer, recorder

        tracer, recorder = run(with_recorder=True)
        alone, __ = run(with_recorder=False)
        assert tracer.count("squash") > 0
        assert tracer.records == alone.records

        def recorder_view(record):
            data = dict(record.data)
            if record.ev == "chunk.grant":
                # The recorder alone adds the grant's lease epoch.
                assert data.pop("epoch") == [1]
            return (record.ev, record.p, record.t, data)

        assert [(r.ev, r.p, r.t, r.data) for r in tracer.records] == [
            recorder_view(r) for r in recorder.records if r.ev.startswith("chunk.")
        ]

    def test_chunk_lifetime_query(self):
        cfg = bsc_dypvt()
        machine = make_machine(cfg, [[Store(8, 1)]])
        tracer = ChunkTracer.attach(machine)
        machine.run()
        lifetime = tracer.chunk_lifetime(0, 1)
        assert lifetime is not None and lifetime > 0
        assert tracer.chunk_lifetime(0, 999) is None

    def test_render_truncates(self):
        cfg = bsc_dypvt().with_bulksc(chunk_size_instructions=10)
        ops = [Compute(5) for __ in range(40)] + [Store(8, 1)]
        machine = make_machine(cfg, [ops])
        tracer = ChunkTracer.attach(machine)
        machine.run()
        text = tracer.render(limit=3)
        assert "more events" in text or len(tracer.events) <= 3

    def test_for_proc_filters(self):
        cfg = bsc_dypvt()
        machine = make_machine(cfg, [[Store(8, 1)], [Store(16, 2)]])
        tracer = ChunkTracer.attach(machine)
        machine.run()
        assert all(e.proc == 1 for e in tracer.for_proc(1))


class TestReport:
    def test_bulksc_report_mentions_chunks(self):
        cfg = bsc_dypvt()
        space = AddressSpace(AddressMap(8, 1))
        space.allocate("d", 64)
        result = run_workload(cfg, [ThreadProgram([Store(8, 1)])], space)
        text = summarize_run(result)
        assert "chunk commits" in text
        assert "bulksc" in text

    def test_rc_report_skips_chunk_sections(self):
        cfg = rc_config()
        space = AddressSpace(AddressMap(8, 1))
        space.allocate("d", 64)
        result = run_workload(cfg, [ThreadProgram([Store(8, 1)])], space)
        text = summarize_run(result)
        assert "chunk commits" not in text
        assert "cycles" in text

"""The simulator's heap stays out of the cyclic collector's way.

* A finished machine frees by reference counting: dropping a
  ``run_workload`` result, live machine included, leaves nothing for
  ``gc.collect()``.
* The per-process workload memo holds programs as their encoded op
  streams, which the collector does not track.
* A recorded history holds no object the collector still tracks after
  one collection.
* An encoded program still reads back as the ops it was built from.
"""

import gc
import types

import pytest

from repro.campaign.spec import FaultVariant
from repro.cpu.isa import (
    Barrier,
    Compute,
    Fence,
    Io,
    Load,
    LockAcquire,
    LockRelease,
    Reg,
    RegPlus,
    SpinUntil,
    Store,
)
from repro.cpu.opstream import K_SLOW, K_STORE, V_REG
from repro.cpu.thread import ThreadProgram
from repro.harness.runner import ALL_APPS, build_app_workload
from repro.memory.address import AddressMap, AddressSpace
from repro.params import NAMED_CONFIGS
from repro.replay.recorder import record_run, replay_cell
from repro.replay.workload import app_spec
from repro.system import run_workload


def cyclic_garbage_of(run):
    """Objects only the cyclic collector could free after ``run()``.

    Automatic collection is off while ``run`` executes, so garbage made
    anywhere in the run, not only the dropped result, is counted.
    """
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestFinishedMachineFreesByRefcount:
    @pytest.mark.parametrize("history", [False, True], ids=["history-off", "history-on"])
    @pytest.mark.parametrize("config_name", ["BSCdypvt", "RC"])
    def test_dropped_result_leaves_no_cycles(self, config_name, history):
        config = NAMED_CONFIGS[config_name](seed=0)
        workload = build_app_workload("ocean", config, 600, 0)

        def run():
            result = run_workload(
                config, workload.programs, workload.address_space,
                record_history=history,
            )
            assert result.machine is not None
            del result

        assert cyclic_garbage_of(run) == 0

    @pytest.mark.parametrize("config_name", ["BSCdypvt", "SC"])
    def test_run_cut_by_max_cycles_leaves_no_cycles(self, config_name):
        """Events and spinners left behind by the cut never fire."""
        config = NAMED_CONFIGS[config_name](seed=0)
        space = AddressSpace(
            AddressMap(config.memory.words_per_line, config.num_directories)
        )
        space.allocate("data", 64)
        programs = [ThreadProgram([Compute(5), SpinUntil(8, 42)])]

        def run():
            result = run_workload(config, programs, space, max_cycles=1000.0)
            assert result.machine.drivers[0].state.value != "finished"
            del result

        assert cyclic_garbage_of(run) == 0

    def test_faulted_crashed_recorded_cell_leaves_no_cycles(self):
        """Wire faults, an arbiter crash and a subscribed TraceRecorder."""
        cell = replay_cell(
            app_spec("sjbb2k", 300, 0),
            fault=FaultVariant(
                faults="drop,delay,dup", crashes=("grant:1:arbiter0",)
            ),
        )
        seen = {}

        def run():
            cell_run = record_run(cell)
            seen.update(
                status=cell_run.status,
                crashes=cell_run.injector.crashes_fired,
                faults=cell_run.injector.total_injected,
                records=len(cell_run.trace.records),
            )
            del cell_run

        assert cyclic_garbage_of(run) == 0
        assert seen["status"] == "ok"
        assert seen["crashes"] == 1
        assert seen["faults"] > 0
        assert seen["records"] > 0


def tracked_reachable(roots):
    """GC-tracked objects reachable from ``roots``, not counting code,
    classes and modules (shared with the rest of the process)."""
    shared = (type, types.ModuleType, types.FunctionType, types.CodeType)
    seen = set()
    stack = list(roots)
    count = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        count += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return count


class TestWorkloadMemo:
    def test_memo_of_all_apps_is_nearly_untracked(self):
        config = NAMED_CONFIGS["BSCdypvt"](seed=0)
        workloads = [build_app_workload(app, config, 1000, 0) for app in ALL_APPS]
        for workload in workloads:  # the interpreters' per-geometry streams
            for program in workload.programs:
                program.op_stream(workload.address_space.map.line_shift)
        gc.collect()  # CPython untracks atom-only tuples when it scans them
        assert tracked_reachable(workloads) <= 2000


class TestRecordedHistory:
    def test_recorded_rows_and_blocks_are_untracked(self):
        """The certified history is headers and op tuples of atoms only:
        one collection takes them all off the cyclic GC's books."""
        config = NAMED_CONFIGS["BSCdypvt"](seed=0).with_bulksc(
            chunk_size_instructions=100
        )
        workload = build_app_workload("ocean", config, 600, 0)
        history = run_workload(
            config, workload.programs, workload.address_space, record_history=True
        ).history
        assert len(history._heads) > 100
        assert len(history._ops) > len(history._heads)
        gc.collect()
        assert tracked_reachable(history._heads) == 0
        assert tracked_reachable(history._ops) == 0


class TestEncodedProgram:
    OPS = [
        Compute(7),
        Load("r1", 64),
        Store(72, 5),
        Store(80, Reg("r1")),
        Store(88, RegPlus("r1", 3)),
        Store(96, 1.5),  # an operand no value spec expresses
        LockAcquire(128),
        LockRelease(128),
        Barrier(2, 1),
        Fence(),
        SpinUntil(136, 1),
        Io(4, 9),
        Io(5, RegPlus("r1", -1)),
    ]

    def test_reads_back_as_its_ops(self):
        program = ThreadProgram(self.OPS)
        assert list(program) == self.OPS
        assert [program[pc] for pc in range(len(self.OPS))] == self.OPS
        assert program[-1] == self.OPS[-1]
        assert program[2:5] == self.OPS[2:5]
        for pc in (len(self.OPS), -len(self.OPS) - 1):
            with pytest.raises(IndexError):
                program[pc]
        assert program.total_instructions == 7 + 12 + 1  # acquire counts 2
        assert program.memory_op_count == 8

    def test_only_inexpressible_ops_stay_objects(self):
        program = ThreadProgram(self.OPS)
        assert sorted(program.side_ops) == [5, 6, 8, 10, 11, 12]
        assert program.side_ops[5] is self.OPS[5]
        stream = program.op_stream(3)
        assert stream.kinds[5] == K_STORE
        assert stream.vspecs[5] == (V_REG, None, 0)
        assert [stream.kinds[pc] for pc in (6, 8, 10, 11, 12)] == [K_SLOW] * 5

    def test_subclass_keeps_its_type(self):
        class TaggedLoad(Load):
            pass

        op = TaggedLoad("r2", 8)
        program = ThreadProgram([op, Load("r3", 8)])
        assert type(program[0]) is TaggedLoad
        assert list(program) == [op, Load("r3", 8)]

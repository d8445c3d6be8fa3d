"""Tests for thread programs, contexts, and checkpoints."""

import pytest

from repro.cpu.checkpoint import Checkpoint
from repro.cpu.isa import Compute, Load, LockRelease, Store
from repro.cpu.opstream import (
    K_COMPUTE,
    K_LOAD,
    K_RELEASE,
    K_STORE,
    V_LIT,
    stream_for,
)
from repro.cpu.thread import ThreadContext, ThreadProgram
from repro.errors import ProgramError


def make_program():
    return ThreadProgram(
        [Load("r1", 0), Compute(10), Store(1, 5)], name="p"
    )


class TestThreadProgram:
    def test_lengths(self):
        program = make_program()
        assert len(program) == 3
        assert program.total_instructions == 12
        assert program.memory_op_count == 2

    def test_indexing_and_iteration(self):
        program = make_program()
        assert isinstance(program[0], Load)
        assert len(list(program)) == 3

    def test_op_stream_is_memoized_per_line_geometry(self):
        program = make_program()
        stream = program.op_stream(3)
        assert program.op_stream(3) is stream
        assert stream_for(program, 3) is stream
        assert program.op_stream(2) is not stream
        assert stream.kinds == (K_LOAD, K_COMPUTE, K_STORE)
        assert stream.lines == (0, 0, 1 >> 3)
        assert stream.vspecs[2] == (V_LIT, 5, 0)

    def test_release_keeps_its_own_kind(self):
        """A release lowers to K_RELEASE carrying a store of the literal 0."""
        stream = ThreadProgram([Store(40, 7), LockRelease(40)]).op_stream(3)
        assert stream.kinds == (K_STORE, K_RELEASE)
        assert stream.args == (40, 40)
        assert stream.lines == (40 >> 3, 40 >> 3)
        assert stream.regs == (None, None)
        assert stream.vspecs == ((V_LIT, 7, 0), (V_LIT, 0, 0))

    def test_empty_program(self):
        program = ThreadProgram([])
        assert program.total_instructions == 0


class TestThreadContext:
    def test_advance_through_program(self):
        thread = ThreadContext(0, make_program())
        assert not thread.finished
        for __ in range(3):
            assert thread.current_op() is not None
            thread.advance()
        assert thread.finished
        assert thread.current_op() is None
        assert thread.retired_instructions == 12

    def test_advance_past_end_raises(self):
        thread = ThreadContext(0, ThreadProgram([]))
        with pytest.raises(ProgramError):
            thread.advance()

    def test_registers(self):
        thread = ThreadContext(0, make_program())
        thread.write_register("r1", 9)
        assert thread.read_register("r1") == 9
        with pytest.raises(ProgramError):
            thread.read_register("r2")


class TestCheckpoint:
    def test_restore_rolls_back_everything(self):
        thread = ThreadContext(0, make_program())
        thread.write_register("r1", 1)
        snapshot = Checkpoint.take(thread)
        thread.advance()
        thread.advance()
        thread.write_register("r1", 99)
        thread.write_register("r2", 5)
        snapshot.restore(thread)
        assert thread.pc == 0
        assert thread.registers == {"r1": 1}
        assert not thread.finished

    def test_restore_recomputes_finished(self):
        thread = ThreadContext(0, ThreadProgram([Compute(1)]))
        snapshot = Checkpoint.take(thread)
        thread.advance()
        assert thread.finished
        snapshot.restore(thread)
        assert not thread.finished

    def test_checkpoint_is_isolated_from_later_mutation(self):
        thread = ThreadContext(0, make_program())
        thread.write_register("r1", 1)
        snapshot = Checkpoint.take(thread)
        thread.registers["r1"] = 42
        assert snapshot.registers["r1"] == 1

    def test_wrong_processor_rejected(self):
        thread0 = ThreadContext(0, make_program())
        thread1 = ThreadContext(1, make_program())
        snapshot = Checkpoint.take(thread0)
        with pytest.raises(ValueError):
            snapshot.restore(thread1)

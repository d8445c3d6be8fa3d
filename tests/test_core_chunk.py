"""Tests for the chunk abstraction."""

import pytest

from repro.core.chunk import Chunk, ChunkState
from repro.cpu.checkpoint import Checkpoint
from repro.cpu.isa import Compute
from repro.cpu.thread import ThreadContext, ThreadProgram
from repro.signatures.exact import ExactSignature


def make_chunk(chunk_id=1, proc=0):
    thread = ThreadContext(proc, ThreadProgram([Compute(1)] * 10))
    return Chunk(
        chunk_id=chunk_id,
        proc=proc,
        checkpoint=Checkpoint.take(thread),
        r_sig=ExactSignature(),
        w_sig=ExactSignature(),
        wpriv_sig=ExactSignature(),
        target_instructions=1000,
    )


class TestWriteBuffer:
    def test_store_buffered_not_visible(self):
        chunk = make_chunk()
        chunk.note_store(100, 42, program_index=0)
        assert chunk.local_value(100) == 42
        assert chunk.local_value(101) is None

    def test_later_store_wins(self):
        chunk = make_chunk()
        chunk.note_store(100, 1, 0)
        chunk.note_store(100, 2, 1)
        assert chunk.local_value(100) == 2
        assert dict(chunk.commit_updates())[100] == 2

    def test_commit_updates_cover_all_words(self):
        chunk = make_chunk()
        chunk.note_store(1, 10, 0)
        chunk.note_store(2, 20, 1)
        assert dict(chunk.commit_updates()) == {1: 10, 2: 20}


class TestOpLog:
    def test_ops_logged_in_program_order(self):
        chunk = make_chunk()
        chunk.note_load(5, 0, 0)
        chunk.note_store(5, 9, 1)
        chunk.note_load(5, 9, 2)
        kinds = [(op[0], op[3]) for op in chunk.ops]
        assert kinds == [(False, 0), (True, 1), (False, 2)]


class TestLifecycle:
    def test_new_chunk_executing_and_active(self):
        chunk = make_chunk()
        assert chunk.state is ChunkState.EXECUTING
        assert chunk.is_active
        assert not chunk.is_done

    def test_granted_chunks_are_immune(self):
        """After grant, the arbiter serializes the chunk; no squash."""
        chunk = make_chunk()
        for state in (ChunkState.COMPLETE, ChunkState.ARBITRATING):
            chunk.mark(state)
            assert chunk.is_active
        chunk.mark(ChunkState.GRANTED)
        assert not chunk.is_active

    def test_done_states(self):
        chunk = make_chunk()
        chunk.mark(ChunkState.COMMITTED)
        assert chunk.is_done
        chunk.mark(ChunkState.SQUASHED)
        assert chunk.is_done

    def test_is_empty(self):
        chunk = make_chunk()
        assert chunk.is_empty
        chunk.instructions += 1
        assert not chunk.is_empty

    def test_is_empty_does_not_read_the_op_log(self):
        """With the op log unkept, executed instructions alone count."""
        chunk = make_chunk()
        chunk.instructions = 2  # a load and a store ran, neither logged
        assert not chunk.ops
        assert not chunk.is_empty

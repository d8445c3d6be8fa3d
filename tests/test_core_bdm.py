"""Tests for the per-processor Bulk Disambiguation Module."""

import pytest

from repro.core.bdm import BDM
from repro.core.chunk import Chunk, ChunkState
from repro.cpu.checkpoint import Checkpoint
from repro.cpu.isa import Compute
from repro.cpu.thread import ThreadContext, ThreadProgram
from repro.memory.cache import LineState, SetAssocCache
from repro.params import CacheGeometry, SignatureConfig
from repro.signatures.exact import ExactSignature
from repro.signatures.factory import SignatureFactory


@pytest.fixture
def cache():
    return SetAssocCache(
        CacheGeometry(
            size_bytes=32 * 1024,
            associativity=4,
            line_bytes=32,
            round_trip_cycles=2,
            mshr_entries=8,
        )
    )


@pytest.fixture
def bdm(cache):
    return BDM(0, cache, SignatureFactory(SignatureConfig(exact=True)))


def new_chunk(bdm, chunk_id=1):
    thread = ThreadContext(0, ThreadProgram([Compute(1)] * 4))
    r, w, wpriv = bdm.new_signature_triple()
    chunk = Chunk(chunk_id, 0, Checkpoint.take(thread), r, w, wpriv, 1000)
    bdm.register_chunk(chunk)
    return chunk


def sig(*lines):
    s = ExactSignature()
    s.insert_many(lines)
    return s


class TestDisambiguation:
    def test_r_collision_detected(self, bdm):
        chunk = new_chunk(bdm)
        chunk.r_sig.insert(10)
        assert bdm.disambiguate(sig(10)) == [chunk]

    def test_w_collision_detected(self, bdm):
        """The W∩W term (partial cache-line updates)."""
        chunk = new_chunk(bdm)
        chunk.w_sig.insert(10)
        assert bdm.disambiguate(sig(10)) == [chunk]

    def test_wpriv_not_disambiguated(self, bdm):
        """Wpriv participates in neither disambiguation nor arbitration."""
        chunk = new_chunk(bdm)
        chunk.wpriv_sig.insert(10)
        assert bdm.disambiguate(sig(10)) == []

    def test_no_collision_when_disjoint(self, bdm):
        chunk = new_chunk(bdm)
        chunk.r_sig.insert(11)
        assert bdm.disambiguate(sig(10)) == []

    def test_granted_chunks_immune(self, bdm):
        chunk = new_chunk(bdm)
        chunk.r_sig.insert(10)
        chunk.mark(ChunkState.GRANTED)
        assert bdm.disambiguate(sig(10)) == []

    def test_multiple_chunks_checked(self, bdm):
        older = new_chunk(bdm, 1)
        younger = new_chunk(bdm, 2)
        younger.r_sig.insert(10)
        assert bdm.disambiguate(sig(10)) == [younger]


class TestBulkInvalidation:
    def test_invalidates_member_lines(self, bdm, cache):
        cache.insert(10, LineState.SHARED)
        cache.insert(11, LineState.SHARED)
        invalidated, unnecessary = bdm.bulk_invalidate(sig(10), true_lines={10})
        assert invalidated == [10]
        assert unnecessary == 0
        assert cache.probe(10) is None
        assert cache.probe(11) is not None

    def test_counts_unnecessary_invalidations(self, bdm, cache):
        cache.insert(10, LineState.SHARED)
        cache.insert(11, LineState.SHARED)
        __, unnecessary = bdm.bulk_invalidate(sig(10, 11), true_lines={10})
        assert unnecessary == 1

    def test_uses_signature_expansion_not_full_traversal(self, bdm, cache):
        """Only candidate sets are visited (we can only verify behaviour:
        absent lines in other sets survive)."""
        cache.insert(0x100, LineState.SHARED)
        bdm.bulk_invalidate(sig(0x200))
        assert cache.probe(0x100) is not None


class TestPinning:
    def test_speculatively_written_lines_pinned(self, bdm):
        chunk = new_chunk(bdm)
        chunk.w_sig.insert(10)
        assert bdm.pinned(10)
        assert not bdm.pinned(11)

    def test_wpriv_lines_pinned(self, bdm):
        chunk = new_chunk(bdm)
        chunk.wpriv_sig.insert(12)
        assert bdm.pinned(12)

    def test_done_chunks_release_pins(self, bdm):
        chunk = new_chunk(bdm)
        chunk.w_sig.insert(10)
        chunk.mark(ChunkState.COMMITTED)
        assert not bdm.pinned(10)


class TestWprivMembership:
    def test_external_access_checks_wpriv(self, bdm):
        chunk = new_chunk(bdm)
        chunk.wpriv_sig.insert(10)
        assert bdm.wpriv_member(10) is chunk
        assert bdm.wpriv_member(11) is None

    def test_oldest_chunk_first(self, bdm):
        older = new_chunk(bdm, 1)
        younger = new_chunk(bdm, 2)
        older.wpriv_sig.insert(10)
        younger.wpriv_sig.insert(10)
        assert bdm.wpriv_member(10) is older


class TestForwardLog:
    def test_log_and_drain(self, bdm):
        bdm.log_forward(10, to_chunk_id=2)
        bdm.log_forward(11, to_chunk_id=2)
        assert not bdm.forward_log_empty
        assert bdm.drain_forward_log() == 2
        assert bdm.forward_log_empty


class TestRegistration:
    def test_deregister(self, bdm):
        chunk = new_chunk(bdm)
        bdm.deregister_chunk(chunk)
        assert bdm.active_chunks() == []
        bdm.deregister_chunk(chunk)  # idempotent

"""Tests for signature transfer compression."""

from repro.signatures.bloom import BloomSignature
from repro.signatures.compression import (
    EMPTY_SIGNATURE_BITS,
    compressed_size_bits,
    compressed_size_bytes,
)
from repro.signatures.exact import ExactSignature


def test_empty_signature_compresses_to_a_flag():
    assert compressed_size_bits(BloomSignature()) == EMPTY_SIGNATURE_BITS
    assert compressed_size_bytes(BloomSignature()) == 1


def test_sparse_signature_is_compact():
    """The paper: ~2 Kbit signatures compress to ~350 bits on the wire."""
    sig = BloomSignature()
    sig.insert_many(range(0x4000, 0x4008))  # 8 lines, ≤ 32 set bits
    bits = compressed_size_bits(sig)
    assert bits < 2048
    assert bits <= 8 + 16 + 32 * 11  # header + count + positions


def test_typical_chunk_signature_near_350_bits():
    sig = BloomSignature()
    # A typical chunk writes a handful of lines (Table 3 write sets).
    sig.insert_many(0x9000 + i * 3 for i in range(7))
    assert compressed_size_bits(sig) <= 450


def test_dense_signature_caps_at_raw_size():
    sig = BloomSignature()
    sig.insert_many(i * 57 for i in range(400))
    assert compressed_size_bits(sig) <= 2048 + EMPTY_SIGNATURE_BITS


def test_compressed_bytes_rounds_up():
    sig = BloomSignature()
    sig.insert(1)
    bits = compressed_size_bits(sig)
    assert compressed_size_bytes(sig) == (bits + 7) // 8


def test_exact_signature_charged_like_bloom():
    """BSCexact must isolate aliasing, not bandwidth."""
    sig = ExactSignature()
    sig.insert_many(range(10))
    assert compressed_size_bits(sig) > EMPTY_SIGNATURE_BITS
    assert compressed_size_bytes(ExactSignature()) == 1


def test_monotone_in_set_size():
    small, big = BloomSignature(), BloomSignature()
    small.insert_many(range(0x100, 0x104))
    big.insert_many(range(0x100, 0x140))
    assert compressed_size_bits(small) <= compressed_size_bits(big)

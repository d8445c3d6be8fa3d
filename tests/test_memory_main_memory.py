"""Tests for the committed memory image."""

from repro.memory.main_memory import MainMemory


def test_default_zero():
    assert MainMemory().read(123) == 0


def test_write_read_roundtrip():
    mem = MainMemory()
    mem.write(5, 42)
    assert mem.read(5) == 42


def test_zero_write_reclaims_storage():
    mem = MainMemory()
    mem.write(5, 42)
    mem.write(5, 0)
    assert mem.read(5) == 0
    assert 5 not in mem.nonzero_words()


def test_write_many_is_batch_applied():
    mem = MainMemory()
    mem.write_many([(1, 10), (2, 20), (1, 11)])
    assert mem.read(1) == 11
    assert mem.read(2) == 20


def test_peek_returns_what_read_returns():
    mem = MainMemory()
    mem.write(1, 5)
    for addr in (1, 2):
        assert mem.peek(addr) == mem.read(addr)


def test_read_leaves_the_image_alone():
    mem = MainMemory()
    mem.write(1, 1)
    mem.read(1)
    mem.read(2)
    assert mem.nonzero_words() == {1: 1}


def test_nonzero_words_snapshot():
    mem = MainMemory()
    mem.write(3, 7)
    snap = mem.nonzero_words()
    snap[3] = 999
    assert mem.read(3) == 7

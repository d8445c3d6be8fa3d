"""The block-stored history reads back exactly as per-op recording would.

:class:`ExecutionHistory` stores a serialized chunk as one block and a
single op as a one-op block.  These tests build random histories through
both entry points, keep a per-op reference list of :class:`MemoryEvent`
beside them, and check that:

* ``events()``, ``len`` and ``events_for_proc`` agree with the reference;
* the SC and atomicity checkers return the same verdict, reason and
  witness as per-event reference loops kept in this file, on clean
  histories and on mutated ones (a flipped load value, two swapped ops of
  one processor, a chunk split across two blocks).
"""

import random
from dataclasses import astuple

import pytest

from repro.verify.atomicity import check_chunk_atomicity, chunk_blocks
from repro.verify.history import ExecutionHistory, MemoryEvent
from repro.verify.sc_checker import check_sequential_consistency

PROCS = 3
WORDS = 4


# ----------------------------------------------------------------------
# Per-event reference checkers: the checkers as they read MemoryEvents
# one by one, before the history was stored in blocks.
# ----------------------------------------------------------------------
def reference_sc(events):
    last_program_index = {}
    memory = {}
    for event in events:
        previous = last_program_index.get(event.proc, -1)
        if event.program_index < previous:
            return (
                False,
                f"proc {event.proc}: op with program index "
                f"{event.program_index} became visible after index {previous} "
                "(program order violated in the global visibility order)",
                event,
            )
        last_program_index[event.proc] = event.program_index
        if event.is_store:
            memory[event.word_addr] = event.value
        else:
            expected = memory.get(event.word_addr, 0)
            if event.value != expected:
                return (
                    False,
                    f"proc {event.proc}: load of word {event.word_addr:#x} "
                    f"returned {event.value} but the most recent store in "
                    f"the visibility order wrote {expected}",
                    event,
                )
    return True, "", None


def reference_atomicity(events):
    seen_blocks = set()
    current_block = None
    last_chunk_id = {}
    for event in events:
        if event.chunk_id is None:
            current_block = None
            continue
        block = (event.proc, event.chunk_id)
        if block == current_block:
            continue
        if block in seen_blocks:
            return (
                False,
                f"proc {event.proc} chunk {event.chunk_id} is split: its "
                "operations do not form one contiguous block of the "
                "visibility order (atomic commit violated)",
                event,
            )
        seen_blocks.add(block)
        current_block = block
        previous = last_chunk_id.get(event.proc)
        if previous is not None and event.chunk_id <= previous:
            return (
                False,
                f"proc {event.proc}: chunk {event.chunk_id} committed "
                f"after chunk {previous} (per-processor chunk order "
                "violated, CReq1)",
                event,
            )
        last_chunk_id[event.proc] = event.chunk_id
    last_program_index = {}
    for event in events:
        previous = last_program_index.get(event.proc, -1)
        if event.program_index < previous:
            return (
                False,
                f"proc {event.proc}: program index {event.program_index} "
                f"after {previous} (program order broken inside or "
                "across chunks)",
                event,
            )
        last_program_index[event.proc] = event.program_index
    return True, "", None


def reference_chunk_blocks(events):
    blocks = []
    for event in events:
        if event.chunk_id is None:
            continue
        if blocks and blocks[-1][:2] == (event.proc, event.chunk_id):
            blocks[-1] = (event.proc, event.chunk_id, blocks[-1][2] + 1)
        else:
            blocks.append((event.proc, event.chunk_id, 1))
    return blocks


# ----------------------------------------------------------------------
# Random histories as a list of recording calls
# ----------------------------------------------------------------------
def random_calls(rng, steps=40):
    """A clean SC execution as ``(time, proc, chunk_id, ops, bulk)`` calls.

    ``bulk`` calls go through ``record_ops``; the others are single ops
    through ``record`` (some with a chunk id, as sync ops carry).
    """
    memory = {}
    next_pc = [0] * PROCS
    next_chunk = [0] * PROCS
    calls = []
    for step in range(steps):
        proc = rng.randrange(PROCS)
        bulk = rng.random() < 0.6
        ops = []
        for __ in range(rng.randint(1, 5) if bulk else 1):
            addr = rng.randrange(WORDS) * 8
            if rng.random() < 0.5:
                value = rng.randrange(1, 100)
                memory[addr] = value
                ops.append((True, addr, value, next_pc[proc]))
            else:
                ops.append((False, addr, memory.get(addr, 0), next_pc[proc]))
            next_pc[proc] += rng.randint(0, 2)
        chunk_id = None
        if bulk or rng.random() < 0.3:
            chunk_id = next_chunk[proc]
            next_chunk[proc] += 1
        calls.append((float(step * 3), proc, chunk_id, ops, bulk))
    return calls


def build(calls):
    """The history the calls record, and the per-op reference list."""
    history = ExecutionHistory()
    reference = []
    for time, proc, chunk_id, ops, bulk in calls:
        if bulk:
            history.record_ops(time, proc, chunk_id, ops)
        else:
            ((is_store, addr, value, pc),) = ops
            history.record(time, proc, is_store, addr, value, pc, chunk_id=chunk_id)
        for is_store, addr, value, pc in ops:
            reference.append(
                MemoryEvent(len(reference), time, proc, is_store, addr, value, pc, chunk_id)
            )
    return history, reference


def flip_load(rng, calls):
    loads = [
        (i, j) for i, call in enumerate(calls)
        for j, op in enumerate(call[3]) if not op[0]
    ]
    if not loads:
        return None
    i, j = rng.choice(loads)
    ops = list(calls[i][3])
    is_store, addr, value, pc = ops[j]
    ops[j] = (is_store, addr, value + 1, pc)
    return calls[:i] + [calls[i][:3] + (ops, calls[i][4])] + calls[i + 1 :]


def swap_ops(rng, calls):
    """Swap the positions of two ops of one processor, with different
    program indices, so program order is broken."""
    proc = rng.randrange(PROCS)
    where = [
        (i, j) for i, call in enumerate(calls) if call[1] == proc
        for j in range(len(call[3]))
    ]
    pairs = [
        (a, b) for a in where for b in where
        if a < b and calls[a[0]][3][a[1]][3] != calls[b[0]][3][b[1]][3]
    ]
    if not pairs:
        return None
    (i1, j1), (i2, j2) = rng.choice(pairs)
    calls = [call[:3] + (list(call[3]), call[4]) for call in calls]
    calls[i1][3][j1], calls[i2][3][j2] = calls[i2][3][j2], calls[i1][3][j1]
    return calls


def split_chunk(rng, calls, interleave=True):
    """Record one multi-op chunk as two ``record_ops`` blocks.

    With ``interleave`` another processor's op sits between the halves;
    without it the halves are adjacent.
    """
    chunks = [i for i, call in enumerate(calls) if call[4] and len(call[3]) >= 2]
    if not chunks:
        return None
    i = rng.choice(chunks)
    time, proc, chunk_id, ops, __ = calls[i]
    cut = rng.randint(1, len(ops) - 1)
    middle = []
    if interleave:
        # A load of an unwritten word at the other processor's current
        # program index: legal SC, so only atomicity can object.
        other = (proc + 1) % PROCS
        pcs = [op[3] for call in calls[:i] if call[1] == other for op in call[3]]
        middle = [(time, other, None, [(False, 1 << 20, 0, max(pcs, default=0))], False)]
    return (
        calls[:i]
        + [(time, proc, chunk_id, ops[:cut], True)]
        + middle
        + [(time, proc, chunk_id, ops[cut:], True)]
        + calls[i + 1 :]
    )


def checker_verdicts(history):
    sc = check_sequential_consistency(history)
    atomic = check_chunk_atomicity(history)
    return (
        (sc.ok, sc.reason, sc.offending_event),
        (atomic.ok, atomic.reason, atomic.offending_event),
    )


def reference_verdicts(reference):
    return reference_sc(reference), reference_atomicity(reference)


SEEDS = range(20)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_events_match_per_op_reference(seed):
    history, reference = build(random_calls(random.Random(seed)))
    events = list(history.events())
    assert [astuple(e) for e in events] == [astuple(e) for e in reference]
    assert [e.seq for e in events] == list(range(len(reference)))
    assert len(history) == len(reference)
    assert [row for row in history.rows()] == [astuple(e) for e in reference]
    for proc in range(PROCS):
        assert history.events_for_proc(proc) == [e for e in reference if e.proc == proc]


@pytest.mark.parametrize("seed", SEEDS)
def test_checkers_agree_on_clean_histories(seed):
    history, reference = build(random_calls(random.Random(seed)))
    verdicts = checker_verdicts(history)
    assert verdicts == reference_verdicts(reference)
    assert verdicts[0][0] and verdicts[1][0]
    assert chunk_blocks(history) == reference_chunk_blocks(reference)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mutate", [flip_load, swap_ops, split_chunk])
def test_checkers_agree_on_mutated_histories(seed, mutate):
    rng = random.Random(seed)
    calls = mutate(rng, random_calls(rng))
    assert calls is not None
    history, reference = build(calls)
    verdicts = checker_verdicts(history)
    assert verdicts == reference_verdicts(reference)
    assert chunk_blocks(history) == reference_chunk_blocks(reference)
    if mutate is not split_chunk:
        assert not verdicts[0][0]
    else:
        assert verdicts[0][0]
        assert not verdicts[1][0]
        assert "is split" in verdicts[1][1]


@pytest.mark.parametrize("seed", SEEDS)
def test_adjacent_pieces_of_one_chunk_are_one_block(seed):
    """Block boundaries carry no meaning: two adjacent pieces of one
    chunk are one contiguous block of rows, and pass."""
    rng = random.Random(seed)
    calls = split_chunk(rng, random_calls(rng), interleave=False)
    assert calls is not None
    history, reference = build(calls)
    assert checker_verdicts(history) == reference_verdicts(reference)
    assert check_chunk_atomicity(history).ok
    assert chunk_blocks(history) == reference_chunk_blocks(reference)


def test_record_ops_copies_the_op_list():
    history = ExecutionHistory()
    ops = [(True, 8, 1, 0)]
    history.record_ops(5.0, 0, 0, ops)
    ops.append((True, 16, 2, 1))
    assert len(history) == 1
    assert [astuple(e) for e in history.events()] == [(0, 5.0, 0, True, 8, 1, 0, 0)]


def test_disabled_history_records_no_block():
    history = ExecutionHistory(enabled=False)
    history.record_ops(1.0, 0, 0, [(True, 8, 1, 0)])
    history.record(2.0, 0, False, 8, 1, 1)
    assert len(history) == 0
    assert list(history.rows()) == []


def test_empty_block_records_nothing():
    history = ExecutionHistory()
    history.record_ops(1.0, 0, 3, [])
    history.record(2.0, 1, True, 8, 1, 0)
    assert len(history) == 1
    assert next(history.events()).seq == 0

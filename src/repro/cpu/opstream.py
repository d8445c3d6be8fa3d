"""The encoded form of a thread program, and its flat per-geometry streams.

A :class:`~repro.cpu.thread.ThreadProgram` is immutable, so the per-op
work a naive interpreter repeats on every execution — ``isinstance``
dispatch on the op dataclass, ``resolve_operand`` type tests,
``line_of`` shifts — can be done once, ahead of time (the same
flattening the paper applies to memory accesses: per-item bookkeeping is
hoisted out of the hot loop and amortized over the whole chunk).

:func:`encode` does it when the program is built.  It turns the op list
into parallel tuples of small-int kind codes, word arguments, register
names and store-value specs, and the program keeps only those: tuples of
ints, strings and such tuples, which CPython's cyclic collector stops
tracking, so a workload memo of a few hundred thousand ops costs the
collector nothing.  An op the columns cannot express exactly stays an
object in a side table keyed by pc: every sync op (``K_SLOW``), a store
whose operand is not an int, :class:`~repro.cpu.isa.Reg` or
:class:`~repro.cpu.isa.RegPlus`, and any subclass of an op dataclass.
:func:`decode` rebuilds an equal frozen op for every other pc.

:func:`lower` derives the one geometry-dependent column, the
pre-shifted line address of each memory op, and wraps the program's
columns in an :class:`OpStream` for one line geometry.

Both run loops read these streams: BulkSC's
(:meth:`repro.core.driver.BulkSCDriver._run_until`) and the baselines'
(:meth:`repro.consistency.base.BaselineDriver._run_until`).  The
straight-line kinds get their own codes; everything that can block or
synchronize (acquire, barrier, spin, I/O) is marked ``K_SLOW`` and
handed, as its side-table object, to the driver's ``execute_op``, which
keeps the run loops free of rarely-taken control flow.

``LockRelease`` encodes as ``K_RELEASE``, carrying the store-value spec
of the literal 0.  BulkSC runs it as a plain store (any memory kind that
is not ``K_LOAD`` is a store there); the baselines give it release
semantics: drain buffered stores first, then make it visible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.cpu.isa import (
    Compute,
    Fence,
    Load,
    LockRelease,
    Op,
    OpKind,
    Reg,
    RegPlus,
    Store,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.thread import ThreadProgram

# Op kind codes (parallel `kinds` array).
K_COMPUTE = 0
K_LOAD = 1
K_STORE = 2
K_FENCE = 3
K_SLOW = 4  # acquire / barrier / spin / io: the driver's execute_op
K_RELEASE = 5  # a store of 0 with release semantics

# Store-value spec codes (first element of a `vspecs` entry).
V_LIT = 0  # (V_LIT, value, 0)
V_REG = 1  # (V_REG, reg_name, 0)
V_REGPLUS = 2  # (V_REGPLUS, reg_name, addend)

#: The value spec of a release: a store of the literal 0.
_RELEASE_VSPEC = (V_LIT, 0, 0)
#: A store whose operand the columns cannot express: None is never a
#: register name, so executing it raises through ``resolve_operand`` on
#: the side-table op.
_UNKNOWN_VSPEC = (V_REG, None, 0)
#: The class :func:`decode` rebuilds per kind code (none for ``K_SLOW``).
_DECODED = {
    K_COMPUTE: Compute,
    K_LOAD: Load,
    K_STORE: Store,
    K_RELEASE: LockRelease,
    K_FENCE: Fence,
}
#: Kinds that carry a word address, and so a line, in their argument.
_ADDRESSED = frozenset((K_LOAD, K_STORE, K_RELEASE))


def _vspec(value) -> Optional[tuple]:
    """The store-value spec of an operand; None when no spec expresses it."""
    if isinstance(value, int):
        return (V_LIT, value, 0)
    if isinstance(value, Reg):
        return (V_REG, value.name, 0)
    if isinstance(value, RegPlus):
        return (V_REGPLUS, value.name, value.addend)
    return None


def encode(ops: Iterable[Op]) -> tuple:
    """Encode ``ops`` once.

    Returns the geometry-free columns ``(kinds, args, regs, vspecs)``, the
    side table of the ops kept as objects (by pc), and the program's
    dynamic instruction and memory-op counts.
    """
    kinds = []
    args = []
    regs = []
    vspecs = []
    side: Dict[int, Op] = {}
    instructions = 0
    memory_ops = 0
    for pc, op in enumerate(ops):
        cls = type(op)
        # The common exact types first; each is rebuilt by decode().
        if cls is Compute:
            kinds.append(K_COMPUTE)
            args.append(op.count)
            regs.append(None)
            vspecs.append(None)
            instructions += op.count
            continue
        if cls is Load:
            kinds.append(K_LOAD)
            args.append(op.addr)
            regs.append(op.reg)
            vspecs.append(None)
            instructions += 1
            memory_ops += 1
            continue
        kind = op.kind
        arg = 0
        vspec = None
        if kind is OpKind.COMPUTE:
            code = K_COMPUTE
            arg = op.count
        elif kind is OpKind.LOAD:
            code = K_LOAD
            arg = op.addr
        elif kind is OpKind.STORE:
            code = K_STORE
            arg = op.addr
            vspec = _vspec(op.value)
            if vspec is None:
                vspec = _UNKNOWN_VSPEC
                side[pc] = op
        elif kind is OpKind.RELEASE:
            code = K_RELEASE
            arg = op.addr
            vspec = _RELEASE_VSPEC
        elif kind is OpKind.FENCE:
            code = K_FENCE
        else:
            code = K_SLOW
        if cls is not _DECODED.get(code):
            side[pc] = op
        kinds.append(code)
        args.append(arg)
        regs.append(op.reg if code == K_LOAD else None)
        vspecs.append(vspec)
        instructions += op.instruction_count
        memory_ops += op.is_memory
    return (
        tuple(kinds), tuple(args), tuple(regs), tuple(vspecs), side,
        instructions, memory_ops,
    )


def decode(program: "ThreadProgram", pc: int) -> Op:
    """The op at ``pc`` of a program that holds no side-table op there."""
    kind = program.kinds[pc]
    if kind == K_COMPUTE:
        return Compute(program.args[pc])
    if kind == K_LOAD:
        return Load(program.regs[pc], program.args[pc])
    if kind == K_STORE:
        tag, value, addend = program.vspecs[pc]
        if tag == V_REG:
            value = Reg(value)
        elif tag == V_REGPLUS:
            value = RegPlus(value, addend)
        return Store(program.args[pc], value)
    if kind == K_RELEASE:
        return LockRelease(program.args[pc])
    return Fence()


class OpStream:
    """One program's columns plus its line column for one line geometry."""

    __slots__ = ("length", "line_shift", "kinds", "args", "lines", "regs", "vspecs")

    def __init__(
        self,
        length: int,
        line_shift: int,
        kinds: Tuple[int, ...],
        args: Tuple[int, ...],
        lines: Tuple[int, ...],
        regs: Tuple[Optional[str], ...],
        vspecs: Tuple[Optional[tuple], ...],
    ):
        self.length = length
        self.line_shift = line_shift
        #: Kind code per op (K_*).
        self.kinds = kinds
        #: COMPUTE: burst count; LOAD/STORE/RELEASE: word address; else 0.
        self.args = args
        #: Pre-shifted line address for memory ops; 0 otherwise.
        self.lines = lines
        #: Destination register name for LOAD; None otherwise.
        self.regs = regs
        #: Pre-split store-value spec (V_* triple) for STORE/RELEASE;
        #: None otherwise.
        self.vspecs = vspecs


def lower(program: "ThreadProgram", line_shift: int) -> OpStream:
    """``program``'s stream for one line geometry (pure; see ThreadProgram.op_stream)."""
    kinds = program.kinds
    addressed = _ADDRESSED
    lines = tuple(
        [
            arg >> line_shift if kind in addressed else 0
            for kind, arg in zip(kinds, program.args)
        ]
    )
    return OpStream(
        len(kinds), line_shift, kinds, program.args, lines, program.regs, program.vspecs
    )


def stream_for(program: "ThreadProgram", line_shift: int) -> OpStream:
    """The lowered stream for ``program``, compiled once per geometry.

    The memo belongs to the program (:meth:`ThreadProgram.op_stream`), so
    repeated runs of the same workload compile once.
    """
    return program.op_stream(line_shift)

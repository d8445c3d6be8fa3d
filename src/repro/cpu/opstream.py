"""The encoded form of a thread program, and its flat per-geometry streams.

A :class:`~repro.cpu.thread.ThreadProgram` is immutable, so the per-op
work a naive interpreter repeats on every execution — ``isinstance``
dispatch on the op dataclass, ``resolve_operand`` type tests,
``line_of`` shifts — can be done once, ahead of time (the same
flattening the paper applies to memory accesses: per-item bookkeeping is
hoisted out of the hot loop and amortized over the whole chunk).

:class:`Encoder` does it as the program is built, one op at a time
(:func:`encode` runs it over an op list; the workload builder feeds it
op fields and never builds the ops).  It turns the ops into parallel
tuples of small-int kind codes, word arguments, register names and
store-value specs, and the program keeps only those: tuples of
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


class Encoder:
    """Encodes a program one op at a time, appending to open columns.

    :meth:`append` encodes any op.  :meth:`load`, :meth:`compute` and
    :meth:`store` append those ops from their fields, building no op
    object, with exactly the columns :meth:`append` would give the op.
    The columns stay lists while the program grows; :meth:`columns`
    snapshots them.
    """

    __slots__ = ("kinds", "args", "regs", "vspecs", "side", "instructions", "memory_ops")

    def __init__(self):
        self.kinds = []
        self.args = []
        self.regs = []
        self.vspecs = []
        self.side: Dict[int, Op] = {}
        self.instructions = 0
        self.memory_ops = 0

    def load(self, reg, addr: int) -> None:
        """Append ``Load(reg, addr)``."""
        self.kinds.append(K_LOAD)
        self.args.append(addr)
        self.regs.append(reg)
        self.vspecs.append(None)
        self.instructions += 1
        self.memory_ops += 1

    def compute(self, count: int) -> None:
        """Append ``Compute(count)``."""
        self.kinds.append(K_COMPUTE)
        self.args.append(count)
        self.regs.append(None)
        self.vspecs.append(None)
        self.instructions += count

    def store(self, addr: int, value) -> None:
        """Append ``Store(addr, value)``; built only if no spec expresses ``value``."""
        vspec = _vspec(value)
        if vspec is None:
            vspec = _UNKNOWN_VSPEC
            self.side[len(self.kinds)] = Store(addr, value)
        self.kinds.append(K_STORE)
        self.args.append(addr)
        self.regs.append(None)
        self.vspecs.append(vspec)
        self.instructions += 1
        self.memory_ops += 1

    def append(self, op: Op) -> None:
        """Append any op."""
        cls = type(op)
        # The common exact types first; each is rebuilt by decode().
        if cls is Compute:
            self.compute(op.count)
            return
        if cls is Load:
            self.load(op.reg, op.addr)
            return
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
                self.side[len(self.kinds)] = op
        elif kind is OpKind.RELEASE:
            code = K_RELEASE
            arg = op.addr
            vspec = _RELEASE_VSPEC
        elif kind is OpKind.FENCE:
            code = K_FENCE
        else:
            code = K_SLOW
        if cls is not _DECODED.get(code):
            self.side[len(self.kinds)] = op
        self.kinds.append(code)
        self.args.append(arg)
        self.regs.append(op.reg if code == K_LOAD else None)
        self.vspecs.append(vspec)
        self.instructions += op.instruction_count
        self.memory_ops += op.is_memory

    def columns(self) -> tuple:
        """A snapshot of the program so far, as :func:`encode` returns it."""
        return (
            tuple(self.kinds), tuple(self.args), tuple(self.regs),
            tuple(self.vspecs), dict(self.side), self.instructions,
            self.memory_ops,
        )


def encode(ops: Iterable[Op]) -> tuple:
    """Encode ``ops`` once.

    Returns the geometry-free columns ``(kinds, args, regs, vspecs)``, the
    side table of the ops kept as objects (by pc), and the program's
    dynamic instruction and memory-op counts.
    """
    encoder = Encoder()
    append = encoder.append
    for op in ops:
        append(op)
    return encoder.columns()


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

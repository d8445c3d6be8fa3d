"""Pre-compiled flat op-streams for the processor run loops.

A :class:`~repro.cpu.thread.ThreadProgram` is immutable, so the per-op
work a naive interpreter repeats on every execution — ``isinstance``
dispatch on the op dataclass, ``resolve_operand`` type tests,
``line_of`` shifts — can be done once, ahead of time.  :func:`lower`
turns a program into parallel tuples of small-int kind codes and
pre-split arguments (the same flattening the paper applies to memory
accesses: per-item bookkeeping is hoisted out of the hot loop and
amortized over the whole chunk).

Both run loops read these streams: BulkSC's
(:meth:`repro.core.driver.BulkSCDriver._run_until`) and the baselines'
(:meth:`repro.consistency.base.BaselineDriver._run_until`).  The
straight-line kinds get their own codes; everything that can block or
synchronize (acquire, barrier, spin, I/O) is marked ``K_SLOW`` and
handed to the driver's ``execute_op``, which keeps the run loops free of
rarely-taken control flow.

``LockRelease`` lowers to ``K_RELEASE``, carrying the store-value spec
of the literal 0.  BulkSC runs it as a plain store (any memory kind that
is not ``K_LOAD`` is a store there); the baselines give it release
semantics: drain buffered stores first, then make it visible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.cpu.isa import (
    Compute,
    Fence,
    Load,
    LockRelease,
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


class OpStream:
    """One program lowered to parallel arrays, for one line geometry."""

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
    """Lower ``program`` for one line geometry (pure; see ThreadProgram.op_stream)."""
    kinds = []
    args = []
    lines = []
    regs = []
    vspecs = []
    for op in program:
        kind = op.kind
        if kind is OpKind.COMPUTE:
            assert isinstance(op, Compute)
            kinds.append(K_COMPUTE)
            args.append(op.count)
            lines.append(0)
            regs.append(None)
            vspecs.append(None)
        elif kind is OpKind.LOAD:
            assert isinstance(op, Load)
            kinds.append(K_LOAD)
            args.append(op.addr)
            lines.append(op.addr >> line_shift)
            regs.append(op.reg)
            vspecs.append(None)
        elif kind is OpKind.STORE:
            assert isinstance(op, Store)
            value = op.value
            if isinstance(value, int):
                vspec = (V_LIT, value, 0)
            elif isinstance(value, Reg):
                vspec = (V_REG, value.name, 0)
            elif isinstance(value, RegPlus):
                vspec = (V_REGPLUS, value.name, value.addend)
            else:
                # Unknown operand type: None is never a register name, so
                # executing the store raises through resolve_operand.
                vspec = (V_REG, None, 0)
            kinds.append(K_STORE)
            args.append(op.addr)
            lines.append(op.addr >> line_shift)
            regs.append(None)
            vspecs.append(vspec)
        elif kind is OpKind.RELEASE:
            assert isinstance(op, LockRelease)
            kinds.append(K_RELEASE)
            args.append(op.addr)
            lines.append(op.addr >> line_shift)
            regs.append(None)
            vspecs.append((V_LIT, 0, 0))
        elif kind is OpKind.FENCE:
            assert isinstance(op, Fence)
            kinds.append(K_FENCE)
            args.append(0)
            lines.append(0)
            regs.append(None)
            vspecs.append(None)
        else:
            kinds.append(K_SLOW)
            args.append(0)
            lines.append(0)
            regs.append(None)
            vspecs.append(None)
    return OpStream(
        len(kinds),
        line_shift,
        tuple(kinds),
        tuple(args),
        tuple(lines),
        tuple(regs),
        tuple(vspecs),
    )


def stream_for(program: "ThreadProgram", line_shift: int) -> OpStream:
    """The lowered stream for ``program``, compiled once per geometry.

    The memo belongs to the program (:meth:`ThreadProgram.op_stream`), so
    repeated runs of the same workload compile once.
    """
    return program.op_stream(line_shift)

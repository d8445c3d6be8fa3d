"""Architectural thread state: program, program counter, registers."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cpu.isa import Op
from repro.cpu.opstream import OpStream, decode, encode, lower
from repro.errors import ProgramError


class ThreadProgram:
    """An immutable straight-line sequence of micro-ops, held encoded.

    The program keeps its ops as the geometry-free columns of
    :func:`repro.cpu.opstream.encode` — ``kinds``, ``args``, ``regs`` and
    ``vspecs``, tuples the cyclic collector does not track — plus
    ``side_ops``, the few ops the columns cannot express exactly, by pc.
    Indexing and iteration return equal frozen op dataclasses: a
    side-table op itself, any other op rebuilt on demand, so analysis,
    replay and tests read a program as the op list it was built from.
    """

    def __init__(self, ops: Sequence[Op], name: str = "program"):
        self._adopt(encode(ops), name)

    @classmethod
    def from_columns(cls, columns: tuple, name: str = "program") -> "ThreadProgram":
        """The program of already-encoded ``columns`` (as
        :meth:`repro.cpu.opstream.Encoder.columns` returns them), adopted
        as they are."""
        program = cls.__new__(cls)
        program._adopt(columns, name)
        return program

    def _adopt(self, columns: tuple, name: str) -> None:
        self.name = name
        (
            self.kinds, self.args, self.regs, self.vspecs, self.side_ops,
            self._total_instructions, self._memory_ops,
        ) = columns
        self._op_streams: Dict[int, OpStream] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, pc):
        if isinstance(pc, slice):
            return [self[i] for i in range(*pc.indices(len(self.kinds)))]
        pc = range(len(self.kinds))[pc]  # normalizes negatives, raises IndexError
        op = self.side_ops.get(pc)
        return op if op is not None else decode(self, pc)

    def __iter__(self):
        side = self.side_ops
        for pc in range(len(self.kinds)):
            op = side.get(pc)
            yield op if op is not None else decode(self, pc)

    @property
    def total_instructions(self) -> int:
        """Dynamic instruction count (Compute bursts expanded)."""
        return self._total_instructions

    @property
    def memory_op_count(self) -> int:
        return self._memory_ops

    def op_stream(self, line_shift: int) -> OpStream:
        """This program's flat op stream for one line geometry.

        Only the line column depends on the geometry
        (:func:`repro.cpu.opstream.lower`); it is derived once per
        ``(program, line_shift)`` and shares the program's other columns.
        """
        stream = self._op_streams.get(line_shift)
        if stream is None:
            stream = self._op_streams[line_shift] = lower(self, line_shift)
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ThreadProgram {self.name!r} ops={len(self.kinds)} "
            f"instructions={self._total_instructions}>"
        )


class ThreadContext:
    """Mutable per-thread execution state."""

    def __init__(self, proc: int, program: ThreadProgram):
        self.proc = proc
        self.program = program
        self.pc = 0
        self.registers: Dict[str, int] = {}
        self.finished = False
        self.retired_instructions = 0

    def current_op(self) -> Optional[Op]:
        if self.pc >= len(self.program):
            return None
        return self.program[self.pc]

    def advance(self) -> None:
        if self.pc >= len(self.program):
            raise ProgramError(f"proc {self.proc}: advance past program end")
        self.retired_instructions += self.program[self.pc].instruction_count
        self.pc += 1
        if self.pc >= len(self.program):
            self.finished = True

    def write_register(self, name: str, value: int) -> None:
        self.registers[name] = value

    def read_register(self, name: str) -> int:
        try:
            return self.registers[name]
        except KeyError:
            raise ProgramError(
                f"proc {self.proc}: read of unwritten register {name!r}"
            ) from None

"""Architectural thread state: program, program counter, registers."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cpu.isa import Op
from repro.cpu.opstream import OpStream, lower
from repro.errors import ProgramError


class ThreadProgram:
    """An immutable straight-line sequence of micro-ops."""

    def __init__(self, ops: Sequence[Op], name: str = "program"):
        self._ops: List[Op] = list(ops)
        self.name = name
        self._total_instructions = sum(op.instruction_count for op in self._ops)
        self._memory_ops = sum(1 for op in self._ops if op.is_memory)
        self._op_streams: Dict[int, OpStream] = {}

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, index: int) -> Op:
        return self._ops[index]

    def __iter__(self):
        return iter(self._ops)

    @property
    def total_instructions(self) -> int:
        """Dynamic instruction count (Compute bursts expanded)."""
        return self._total_instructions

    @property
    def memory_op_count(self) -> int:
        return self._memory_ops

    def op_stream(self, line_shift: int) -> OpStream:
        """This program lowered to a flat op stream (``repro.cpu.opstream``).

        Lowering is pure per ``(program, line_shift)`` and the program is
        immutable, so each line geometry compiles once per program.
        """
        stream = self._op_streams.get(line_shift)
        if stream is None:
            stream = self._op_streams[line_shift] = lower(self, line_shift)
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ThreadProgram {self.name!r} ops={len(self._ops)} "
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

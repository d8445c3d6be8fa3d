"""Chunk lifecycle tracing.

Attach a :class:`ChunkTracer` to a BulkSC machine *before* running and it
records every chunk transition — useful both for debugging the protocol
and for understanding a workload's commit/squash pattern:

    machine = Machine(config, programs, space)
    tracer = ChunkTracer.attach(machine)
    machine.run()
    print(tracer.render())

The tracer subscribes to the machine's chunk-lifecycle event stream
(:meth:`repro.system.Machine.subscribe`), like the replay recorder, keeps
its ``chunk.*`` events and stores them as versioned
:class:`~repro.replay.schema.TraceRecord` entries in the shape
:func:`repro.replay.recorder.chunk_record_data` shares with the recorder.  :class:`TraceEvent` remains as the human-facing *view* of one
record; :meth:`ChunkTracer.as_trace` exports the whole stream as a
schema-valid ``kind="view"`` trace for tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.replay.recorder import chunk_record_data
from repro.replay.schema import (
    TRACE_VERSION,
    Trace,
    TraceRecord,
    make_header,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import Machine


@dataclass(frozen=True)
class TraceEvent:
    """One chunk transition — a readable view of a trace record."""

    time: float
    proc: int
    chunk_id: int
    event: str  # start | close | grant | commit | squash
    detail: str = ""

    def __str__(self) -> str:
        base = f"[{self.time:10.1f}] p{self.proc} chunk#{self.chunk_id:<4d} {self.event}"
        return f"{base} ({self.detail})" if self.detail else base

    @classmethod
    def from_record(cls, record: TraceRecord) -> "TraceEvent":
        return cls(
            time=record.t,
            proc=record.p if record.p is not None else -1,
            chunk_id=int(record.data.get("chunk", -1)),
            event=record.ev.split(".", 1)[-1],
            detail=str(record.data.get("detail", "")),
        )


class ChunkTracer:
    """Records chunk lifecycle events from a BulkSC machine.

    The authoritative stream is :attr:`records` (schema
    ``TraceRecord``s with ``ev`` of ``chunk.start`` / ``chunk.close`` /
    ``chunk.grant`` / ``chunk.commit`` / ``chunk.squash``); the query
    API works on :class:`TraceEvent` views of it.
    """

    def __init__(self, machine: "Machine"):
        # The clock, not the machine: the machine's subscriber list holds
        # the tracer.
        self.sim = machine.sim
        self.records: List[TraceRecord] = []

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, machine: "Machine") -> "ChunkTracer":
        """Subscribe a tracer to a (not yet run) BulkSC machine."""
        tracer = cls(machine)
        machine.subscribe(tracer.on_event)
        return tracer

    def on_event(self, ev: str, p: Optional[int], *payload) -> None:
        """Keep the ``chunk.*`` events of the machine's event stream."""
        if not ev.startswith("chunk."):
            return
        self.records.append(
            TraceRecord(
                seq=len(self.records) + 1,
                t=self.sim.now,
                ev=ev,
                p=p,
                data=chunk_record_data(ev, *payload),
            )
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        """The recorded stream as readable :class:`TraceEvent` views."""
        return [TraceEvent.from_record(r) for r in self.records]

    def as_trace(self, config_name: str = "", seed: int = 0) -> Trace:
        """Export the stream as a schema-valid ``kind="view"`` trace.

        View traces carry no reconstruction guarantee (they only hold
        chunk lifecycle events), but they share the file format with
        full replay traces so the same tooling can parse them.
        """
        header = make_header(
            kind="view",
            config=config_name,
            seed=seed,
            workload={"kind": "view", "source": "ChunkTracer"},
            note=f"chunk lifecycle view (schema v{TRACE_VERSION})",
        )
        footer = {"footer": True, "records": len(self.records)}
        return Trace(header=header, records=list(self.records), footer=footer)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def for_proc(self, proc: int) -> List[TraceEvent]:
        return [e for e in self.events if e.proc == proc]

    def count(self, event: str, proc: Optional[int] = None) -> int:
        return sum(
            1
            for e in self.events
            if e.event == event and (proc is None or e.proc == proc)
        )

    def chunk_lifetime(self, proc: int, chunk_id: int) -> Optional[float]:
        """Cycles from start to commit for one chunk, if it committed."""
        start = commit = None
        for e in self.events:
            if e.proc == proc and e.chunk_id == chunk_id:
                if e.event == "start" and start is None:
                    start = e.time
                elif e.event == "commit":
                    commit = e.time
        if start is None or commit is None:
            return None
        return commit - start

    def render(self, limit: int = 200) -> str:
        """A readable timeline of the first ``limit`` events."""
        events = self.events
        lines = [str(e) for e in events[:limit]]
        if len(events) > limit:
            lines.append(f"... {len(events) - limit} more events")
        return "\n".join(lines)

"""The versioned JSONL trace format (schema, writer, reader).

A trace file is line-delimited JSON with exactly three kinds of lines:

1. **Header** (first line): run identity — schema name + version, trace
   kind, configuration name, seed, workload spec, fault metadata — i.e.
   everything needed to *reconstruct* the run from scratch.
2. **Records** (middle lines): one per observed scheduling decision or
   protocol transition, with a contiguous sequence number, simulated
   time, event kind, optional processor, and a small data payload.
3. **Footer** (last line): outcome summary — final memory image,
   per-thread registers, SC verdict, error, cycles, RNG draw counts,
   full stats snapshot — used by replay to cross-check end state even
   when the record stream matches.

Schema version policy: ``TRACE_VERSION`` bumps on any change to the
meaning or shape of existing fields; readers reject traces whose version
they do not understand (no silent best-effort parsing — a trace is a
correctness artifact).  Adding new *optional* header/footer keys or new
record ``ev`` kinds is backward compatible and does not bump the
version.  This reader accepts every version in
:data:`SUPPORTED_VERSIONS`; v2 added the arbiter crash-recovery records
(``arb.crash``/``arb.reconstruct``/``arb.recovered``), the ``crash``
fault channel, and the optional ``crashes`` header key — v1 traces are
a strict subset and still read.

Record event kinds currently emitted:

==================  =====================================================
``chunk.start``     driver opened a new chunk
``chunk.close``     chunk completed and queued for commit (reason)
``chunk.grant``     grant message reached the processor
``chunk.commit``    chunk committed at the processor
``chunk.squash``    chunk squashed (instructions lost)
``arb.grant``       arbiter granted a permission-to-commit request
``arb.deny``        arbiter denied a request (reason)
``arb.need_r``      RSig second round: arbiter asked for R
``commit.serialize`` chunk serialized at the arbiter's grant instant
``inv.deliver``     committed W delivered to a victim processor
``dir.expand``      a directory BDM expanded a committed W signature
``fault``           the injector perturbed a message or protocol step
``arb.crash``       an arbiter incarnation crash-stopped (v2)
``arb.reconstruct`` the new epoch re-admitted surviving commits (v2)
``arb.recovered``   reconstruction drained; normal service resumed (v2)
==================  =====================================================

Several records carry optional enriched data fields consumed by the
per-component contract checkers (:mod:`repro.contracts`) — all additions
under the backward-compatible "new optional data fields" rule, so the
version stays 2: ``commit.serialize`` adds ``epoch`` (grant lease),
``ops`` (the chunk's program-order op log as ``[is_store, word, value,
program_index]`` rows), and ``w_lines``/``r_lines`` (true line
footprints); ``chunk.grant`` adds ``epoch``; ``inv.deliver`` adds
``commit``, ``w_lines``, and the independently recomputed
``sig_conflicts``/``true_conflicts`` chunk-id sets.  Traces recorded
before these fields existed still read and replay; contract checkers
report the affected clauses as *unevaluable* rather than guessing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError

TRACE_SCHEMA = "repro-trace"
TRACE_VERSION = 2

#: Versions this reader understands (v1 traces lack recovery records).
SUPPORTED_VERSIONS = (1, 2)

#: Record cap per trace: bounded artifacts, exact counts in the footer.
MAX_RECORDS = 250_000

_REQUIRED_HEADER_KEYS = ("schema", "version", "kind", "config", "seed", "workload")
_KNOWN_KINDS = ("run", "chaos", "minimized", "view")


class TraceValidationError(ReproError):
    """A trace file violated the schema (corrupt, truncated, or foreign)."""


@dataclass(frozen=True)
class TraceRecord:
    """One observed event in a recorded run."""

    seq: int
    t: float
    ev: str
    p: Optional[int] = None
    data: Dict[str, object] = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {"seq": self.seq, "t": self.t, "ev": self.ev, "p": self.p,
                "data": self.data}

    @classmethod
    def from_obj(cls, obj: dict) -> "TraceRecord":
        try:
            return cls(
                seq=int(obj["seq"]),
                t=float(obj["t"]),
                ev=str(obj["ev"]),
                p=obj.get("p"),
                data=dict(obj.get("data", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceValidationError(f"malformed trace record {obj!r}: {exc}")

    def render(self) -> str:
        who = f" p{self.p}" if self.p is not None else ""
        detail = ""
        if self.data:
            detail = " " + " ".join(f"{k}={v}" for k, v in sorted(self.data.items()))
        return f"[{self.t:>10.1f}]{who} {self.ev}{detail}"


def make_header(
    kind: str,
    config: str,
    seed: int,
    workload: dict,
    faults: Optional[dict] = None,
    fault_script: Optional[dict] = None,
    max_events: Optional[int] = None,
    note: str = "",
    crashes: Optional[list] = None,
) -> dict:
    """Build a schema-complete trace header.

    ``faults`` describes a seeded :class:`~repro.faults.plan.FaultPlan`
    (``spelling``, ``rate``, ``no_retry``, ``injector_seed``,
    ``injector_label``); ``fault_script`` is an explicit ``{seq: fault}``
    schedule a :class:`~repro.faults.injector.FaultInjector` follows
    instead of drawing.
    A trace carries at most one of the two.  ``crashes`` (v2) lists
    scripted arbiter-crash points in their canonical
    ``POINT:OCCURRENCE:TARGET`` spelling; it composes with either.
    """
    header = {
        "schema": TRACE_SCHEMA,
        "version": TRACE_VERSION,
        "kind": kind,
        "config": config,
        "seed": seed,
        "workload": workload,
        "faults": faults,
        "fault_script": fault_script,
        "max_events": max_events,
    }
    if crashes:
        header["crashes"] = list(crashes)
    if note:
        header["note"] = note
    return header


@dataclass
class Trace:
    """A parsed (or freshly recorded) trace: header + records + footer."""

    header: dict
    records: List[TraceRecord]
    footer: dict

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Strict structural validation; raises :class:`TraceValidationError`."""
        for key in _REQUIRED_HEADER_KEYS:
            if key not in self.header:
                raise TraceValidationError(f"trace header missing {key!r}")
        if self.header["schema"] != TRACE_SCHEMA:
            raise TraceValidationError(
                f"not a {TRACE_SCHEMA} file (schema={self.header['schema']!r})"
            )
        if self.header["version"] not in SUPPORTED_VERSIONS:
            raise TraceValidationError(
                f"unsupported trace version {self.header['version']!r} "
                f"(this reader understands versions "
                f"{', '.join(str(v) for v in SUPPORTED_VERSIONS)})"
            )
        if self.header["kind"] not in _KNOWN_KINDS:
            raise TraceValidationError(
                f"unknown trace kind {self.header['kind']!r}"
            )
        faults = self.header.get("faults") or {}
        if faults.get("spelling") and self.header.get("fault_script"):
            # A faults dict without a spelling only records resilience
            # settings (no_retry) and is fine next to a script.
            raise TraceValidationError(
                "trace carries both a fault plan and a fault script"
            )
        for i, record in enumerate(self.records):
            if record.seq != i + 1:
                raise TraceValidationError(
                    f"record sequence broken at index {i}: expected seq "
                    f"{i + 1}, found {record.seq}"
                )
        if not self.footer.get("footer"):
            raise TraceValidationError("trace footer missing or mis-tagged")
        declared = self.footer.get("records")
        if declared is not None and declared != len(self.records):
            raise TraceValidationError(
                f"footer declares {declared} records, file holds "
                f"{len(self.records)}"
            )

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.header["kind"]

    @property
    def fault_records(self) -> List[TraceRecord]:
        return [r for r in self.records if r.ev == "fault"]

    def describe(self) -> str:
        h, f = self.header, self.footer
        lines = [
            f"{TRACE_SCHEMA} v{h['version']} kind={h['kind']} "
            f"config={h['config']} seed={h['seed']}",
            f"workload: {h['workload']}",
        ]
        if h.get("faults"):
            lines.append(f"faults: {h['faults']}")
        if h.get("fault_script"):
            script = h["fault_script"]
            sizes = {k: len(v) for k, v in script.items() if v}
            lines.append(f"fault script: {sizes}")
        if h.get("crashes"):
            lines.append(f"crashes: {', '.join(h['crashes'])}")
        lines.append(
            f"records: {len(self.records)}   cycles: {f.get('cycles')}   "
            f"faults injected: {f.get('total_faults')}"
        )
        status = "error: " + f["error"] if f.get("error") else (
            "sc_ok=" + str(f.get("sc_ok"))
        )
        lines.append(f"outcome: {status}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# I/O
# ----------------------------------------------------------------------

def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_trace(trace: Trace, path: str) -> None:
    """Write a trace as JSONL (header, records, footer); validates first."""
    trace.validate()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(trace.header) + "\n")
        for record in trace.records:
            fh.write(_dumps(record.to_obj()) + "\n")
        fh.write(_dumps(trace.footer) + "\n")


def read_trace(path: str) -> Trace:
    """Parse and strictly validate a trace file."""
    header: Optional[dict] = None
    footer: Optional[dict] = None
    records: List[TraceRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceValidationError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                )
            if not isinstance(obj, dict):
                raise TraceValidationError(
                    f"{path}:{lineno}: expected a JSON object"
                )
            if header is None:
                header = obj
                continue
            if footer is not None:
                raise TraceValidationError(
                    f"{path}:{lineno}: content after the footer line"
                )
            if obj.get("footer"):
                footer = obj
                continue
            records.append(TraceRecord.from_obj(obj))
    if header is None:
        raise TraceValidationError(f"{path}: empty trace file")
    if footer is None:
        raise TraceValidationError(f"{path}: truncated trace (no footer line)")
    trace = Trace(header=header, records=records, footer=footer)
    trace.validate()
    return trace

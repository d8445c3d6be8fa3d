"""Post-run certification: the merged live history must be SC.

A service run leaves per-process record logs, per-node store snapshots,
and per-client ack manifests under the service directory.  This module
turns them into one schema-v2 trace and holds it to the same standard
as a simulated run:

1. **Merge** every record log on the global sort keys into a single
   serialize-order stream (see :mod:`~repro.service.records`).
2. **Replay** the ``commit.serialize`` op logs through the dynamic SC
   checker (:mod:`~repro.verify.sc_checker`) — the live run's history.
3. **Check** all five PR 7 component contracts plus the composition
   obligation over the merged stream (:func:`~repro.contracts.checker`).
4. **Converge**: every node snapshot must equal the replay's final
   memory — the replicas agree with each other *and* with the committed
   history, crashes or not.
5. **Audit acks**: every write batch a client saw acknowledged must
   appear as a serialize record with identical writes.  This is the
   zero-acknowledged-write-loss guarantee made checkable: an ack is
   only sent after every replica applied, so a crash may lose
   un-acknowledged work, never acknowledged work.

The merged trace is written to ``<dir>/merged.trace.jsonl`` so the
standard ``repro analyze contracts`` CLI (and CI) can re-verify it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.contracts.checker import ContractReport, check_trace
from repro.replay.schema import Trace, TraceRecord, make_header, write_trace
from repro.service.client import load_ack_manifests
from repro.service.records import load_merged_records
from repro.verify.history import ExecutionHistory
from repro.verify.sc_checker import check_sequential_consistency

MERGED_TRACE_NAME = "merged.trace.jsonl"


@dataclass
class CertifyResult:
    """The full verdict for one live service run."""

    sc_ok: bool
    sc_reason: str
    contracts: ContractReport
    convergence_ok: Optional[bool]  # None: no snapshots to compare
    convergence_detail: str
    acked_ok: bool
    lost_acks: List[dict] = field(default_factory=list)
    records: int = 0
    chunks: int = 0
    snapshots: int = 0
    acked_writes: int = 0
    trace_path: str = ""

    @property
    def ok(self) -> bool:
        return (
            self.sc_ok
            and self.contracts.ok
            and self.convergence_ok is not False
            and self.acked_ok
        )

    def payload(self) -> dict:
        return {
            "ok": self.ok,
            "sc_ok": self.sc_ok,
            "sc_reason": self.sc_reason,
            "contracts_ok": self.contracts.ok,
            "failing_components": list(self.contracts.failing_components),
            "convergence_ok": self.convergence_ok,
            "convergence_detail": self.convergence_detail,
            "acked_ok": self.acked_ok,
            "lost_acks": self.lost_acks[:8],
            "records": self.records,
            "chunks": self.chunks,
            "snapshots": self.snapshots,
            "acked_writes": self.acked_writes,
            "trace_path": self.trace_path,
        }


# ----------------------------------------------------------------------

def _replay(records: List[TraceRecord]) -> Tuple[ExecutionHistory, Dict[int, int], int]:
    """Feed serialize-order op logs into a dynamic execution history."""
    history = ExecutionHistory()
    memory: Dict[int, int] = {}
    chunks = 0
    for record in records:
        if record.ev != "commit.serialize" or "ops" not in record.data:
            continue
        chunks += 1
        chunk = record.data.get("chunk")
        ops = [
            (bool(is_store), int(addr), int(value), int(program_index))
            for is_store, addr, value, program_index in record.data["ops"]
        ]
        history.record_ops(
            record.t, int(record.p), chunk if chunk is None else int(chunk), ops
        )
        for is_store, addr, value, __ in ops:
            if is_store:
                memory[addr] = value
    return history, memory, chunks


def _load_snapshots(directory: str) -> Dict[str, Dict[int, int]]:
    snapshots: Dict[str, Dict[int, int]] = {}
    names = sorted(
        name for name in os.listdir(directory)  # detlint: ok[DET006] — sorted immediately
        if name.endswith(".snapshot.json")
    )
    for name in names:
        with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        snapshots[name[: -len(".snapshot.json")]] = {
            int(k): int(v) for k, v in obj.get("store", {}).items()
        }
    return snapshots


def _nonzero(memory: Dict[int, int]) -> Dict[int, int]:
    return {k: v for k, v in memory.items() if v != 0}


def _check_convergence(
    replay_memory: Dict[int, int], snapshots: Dict[str, Dict[int, int]]
) -> Tuple[Optional[bool], str]:
    if not snapshots:
        return None, "no node snapshots found (run still live or crashed?)"
    expected = _nonzero(replay_memory)
    for name, store in sorted(snapshots.items()):
        actual = _nonzero(store)
        if actual != expected:
            differing = sorted(set(actual) ^ set(expected))[:8]
            return False, (
                f"replica {name} diverges from the serialize-order replay "
                f"at word(s) {differing}"
            )
    return True, f"{len(snapshots)} replicas converged on the replayed image"


def _audit_acks(
    records: List[TraceRecord], manifests: List[dict]
) -> Tuple[bool, List[dict]]:
    """Every acknowledged write batch must exist in the merged trace."""
    serialized: Dict[Tuple[int, int], Dict[str, int]] = {}
    for record in records:
        if record.ev != "commit.serialize" or record.p is None:
            continue
        client_seq = record.data.get("client_seq")
        if client_seq is None:
            continue
        writes = {
            str(op[1]): int(op[2]) for op in record.data.get("ops", []) if op[0]
        }
        serialized[(int(record.p), int(client_seq))] = writes
    lost = []
    for entry in manifests:
        key = (int(entry["client"]), int(entry["client_seq"]))
        writes = {str(k): int(v) for k, v in entry.get("writes", {}).items()}
        if serialized.get(key) != writes:
            lost.append(entry)
    return not lost, lost


# ----------------------------------------------------------------------

def build_trace(
    records: List[TraceRecord],
    sc_ok: bool,
    memory: Dict[int, int],
    seed: int = 0,
    note: str = "",
) -> Trace:
    """Wrap the merged record stream as a schema-v2 run trace."""
    header = make_header(
        kind="run",
        config="service",
        seed=seed,
        workload={"kind": "service", "source": "live-cluster"},
        note=note or "merged live service run",
    )
    footer = {
        "footer": True,
        "sc_ok": sc_ok,
        "error": None,
        "final_memory": {str(k): v for k, v in sorted(_nonzero(memory).items())},
        "records": len(records),
    }
    return Trace(header=header, records=records, footer=footer)


def certify_run(directory: str, seed: int = 0) -> CertifyResult:
    """Certify one service run from its on-disk artifacts."""
    records = load_merged_records(directory)
    history, memory, chunks = _replay(records)
    sc = check_sequential_consistency(history)
    trace = build_trace(records, sc.ok, memory, seed=seed)
    report = check_trace(trace)
    snapshots = _load_snapshots(directory)
    convergence_ok, convergence_detail = _check_convergence(memory, snapshots)
    manifests = load_ack_manifests(directory)
    acked_ok, lost = _audit_acks(records, manifests)
    trace_path = os.path.join(directory, MERGED_TRACE_NAME)
    write_trace(trace, trace_path)
    return CertifyResult(
        sc_ok=sc.ok,
        sc_reason=sc.reason or "serialize-order replay is SC",
        contracts=report,
        convergence_ok=convergence_ok,
        convergence_detail=convergence_detail,
        acked_ok=acked_ok,
        lost_acks=lost,
        records=len(records),
        chunks=chunks,
        snapshots=len(snapshots),
        acked_writes=len(manifests),
        trace_path=trace_path,
    )


def render_certification(result: CertifyResult) -> str:
    lines = [
        f"merged records: {result.records}   chunks: {result.chunks}   "
        f"acked writes: {result.acked_writes}",
        f"  [{'ok ' if result.sc_ok else 'FAIL'}] sequential consistency "
        f"({result.sc_reason})",
        f"  [{'ok ' if result.contracts.ok else 'FAIL'}] component contracts"
        + (
            ""
            if result.contracts.ok
            else f" — failing: {', '.join(result.contracts.failing_components)}"
        ),
    ]
    if result.convergence_ok is None:
        lines.append(f"  [ -- ] replica convergence ({result.convergence_detail})")
    else:
        mark = "ok " if result.convergence_ok else "FAIL"
        lines.append(f"  [{mark}] replica convergence ({result.convergence_detail})")
    mark = "ok " if result.acked_ok else "FAIL"
    lines.append(
        f"  [{mark}] zero acknowledged-write loss "
        f"({len(result.lost_acks)} lost of {result.acked_writes})"
    )
    lines.append(f"merged trace: {result.trace_path}")
    return "\n".join(lines)


__all__ = [
    "CertifyResult",
    "MERGED_TRACE_NAME",
    "build_trace",
    "certify_run",
    "render_certification",
]

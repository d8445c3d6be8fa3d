"""Render fault traces and chaos reports for humans (and CI logs).

The chaos harness produces structured data —
:class:`~repro.faults.chaos.ChaosReport` with per-run records and, on
failure, the injected-fault trace.  This module turns both into the text
the ``chaos`` CLI subcommand prints, and a JSON-able payload for
machine consumption.  Structured fault data uses the versioned replay
trace schema (:mod:`repro.replay.schema`) — the same ``fault`` record
shape the replay recorder emits — so there is one trace format across
the chunk tracer, the chaos harness, and record/replay.
"""

from __future__ import annotations

from typing import List

from repro.faults.chaos import ChaosReport
from repro.faults.injector import FaultRecord
from repro.replay.schema import TraceRecord


def fault_trace_records(trace: List[FaultRecord]) -> List[TraceRecord]:
    """Lift injector fault records into schema ``fault`` trace records.

    The ``data`` is :meth:`FaultRecord.trace_data`, the same builder
    :class:`~repro.replay.recorder.TraceRecorder` uses for the same
    fault, so chaos payload consumers and replay-trace consumers parse
    one format.  (Stand-alone fault traces carry no simulated timestamp,
    so ``t`` is 0.)
    """
    return [
        TraceRecord(
            seq=i + 1,
            t=0.0,
            ev="fault",
            p=None,
            data=record.trace_data(),
        )
        for i, record in enumerate(trace)
    ]


def render_fault_trace(trace: List[FaultRecord], limit: int = 20) -> str:
    """The last ``limit`` injected faults, newest last."""
    if not trace:
        return "  (no faults were injected)"
    lines = []
    elided = len(trace) - limit
    if elided > 0:
        lines.append(f"  ... {elided} earlier fault(s) elided ...")
    for record in trace[-limit:]:
        lines.append(f"  {record.render()}")
    return "\n".join(lines)


def render_chaos_report(report: ChaosReport) -> str:
    lines = [
        f"chaos campaign: workload={report.workload} config={report.config_name} "
        f"seed={report.seed}",
        f"faults: {report.plan_description} "
        f"(retries {'on' if report.retries_enabled else 'off'})",
        f"runs: {len(report.runs)}   certified: {report.certified}   "
        f"faults injected: {report.total_faults}",
    ]
    if report.crashes_spelling:
        lines.append(
            f"arbiter crashes: {', '.join(report.crashes_spelling)} "
            f"({report.total_crashes} fired)"
        )
    for run in report.runs:
        if run.error is not None:
            status = "ERROR"
        elif not run.sc_certified:
            status = "SC-VIOLATION"
        elif run.forbidden_outcome:
            status = "FORBIDDEN"
        else:
            status = "ok"
        detail = f" [{run.fault_summary}]" if run.faults_injected else ""
        if run.crashes:
            detail += (
                f" crashes={run.crashes} recovery≈{run.recovery_cycles:.0f}cy"
            )
        lines.append(f"  {status:12s} {run.name}{detail}")
        if run.error is not None:
            lines.append(f"    {run.error}")
        elif not run.sc_certified:
            lines.append(f"    {run.sc_reason}")
    error = report.first_error
    if error is not None:
        lines.append("fault trace of the failing run:")
        lines.append(render_fault_trace(report.failure_trace))
        lines.append(f"RESULT: diagnosable failure — {error}")
    elif report.sc_violations:
        lines.append(f"RESULT: {len(report.sc_violations)} run(s) broke SC")
    elif report.all_certified:
        lines.append(
            f"RESULT: SC certified by verify.sc_checker on all "
            f"{len(report.runs)} runs under {report.total_faults} injected faults"
        )
    else:
        lines.append("RESULT: no runs executed")
    return "\n".join(lines)


def chaos_report_payload(report: ChaosReport) -> dict:
    """A JSON-serializable view of the report."""
    return {
        "workload": report.workload,
        "config": report.config_name,
        "seed": report.seed,
        "faults": report.plan_description,
        "retries_enabled": report.retries_enabled,
        "runs": [
            {
                "name": r.name,
                "seed": r.seed,
                "cycles": r.cycles,
                "faults_injected": r.faults_injected,
                "fault_summary": r.fault_summary,
                "sc_certified": r.sc_certified,
                "forbidden_outcome": r.forbidden_outcome,
                "crashes": r.crashes,
                "recovery_cycles": r.recovery_cycles,
                "error": r.error,
            }
            for r in report.runs
        ],
        "crashes": list(report.crashes_spelling),
        "total_crashes": report.total_crashes,
        "total_faults": report.total_faults,
        "certified": report.certified,
        "all_certified": report.all_certified,
        "first_error": report.first_error,
        "failure_trace": [r.render() for r in report.failure_trace],
        "failure_records": [
            r.to_obj() for r in fault_trace_records(report.failure_trace)
        ],
    }

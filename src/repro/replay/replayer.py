"""Replay: re-drive a machine from a trace and assert no divergence.

Determinism is the contract: a trace header fully determines its run,
so replay is *re-execution plus equality checking*, not event-queue
puppetry.  The replayer rebuilds the machine from the header (config,
seed, workload spec, fault plan or fault script), runs it with a fresh
recorder attached, and then compares

1. the **record streams**, event by event — the first mismatch yields a
   :class:`ReplayDivergence` naming the sequence number, both records,
   and the RNG draw counts on each side (so a divergence can be chased
   to the exact draw where the executions split); and
2. the **footers** — final memory image, registers, cycles, SC verdict,
   error, fault and draw counts, and the full stats snapshot — which
   catches any difference the event stream is too coarse to see.

``replay --check`` additionally re-runs the SC checker on the replayed
history (the recorder does this as part of footer construction) and
surfaces the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.replay.recorder import CellRun, cell_from_header, record_run
from repro.replay.schema import Trace, TraceRecord

#: Footer keys compared field-by-field after the record streams match.
_FOOTER_KEYS = (
    "cycles",
    "final_memory",
    "registers",
    "io_log",
    "sc_ok",
    "forbidden",
    "error",
    "rng_draws",
    "injector_draws",
    "total_faults",
    "records",
)


@dataclass(frozen=True)
class ReplayDivergence:
    """The first point where the replayed event stream left the trace."""

    index: int  # 0-based index into the record streams
    recorded: Optional[TraceRecord]
    replayed: Optional[TraceRecord]
    recorded_draws: int
    replayed_draws: int

    def describe(self) -> str:
        lines = [f"first divergence at record {self.index + 1}:"]
        lines.append(
            "  recorded: "
            + (self.recorded.render() if self.recorded else "<stream ended>")
        )
        lines.append(
            "  replayed: "
            + (self.replayed.render() if self.replayed else "<stream ended>")
        )
        lines.append(
            f"  rng draws at end of run: recorded={self.recorded_draws} "
            f"replayed={self.replayed_draws}"
        )
        return "\n".join(lines)


@dataclass
class ReplayResult:
    """Outcome of replaying one trace."""

    trace: Trace
    replayed: CellRun
    divergence: Optional[ReplayDivergence] = None
    footer_mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.footer_mismatches

    @property
    def sc_ok(self) -> Optional[bool]:
        return self.replayed.sc_ok

    def describe(self) -> str:
        if self.ok:
            f = self.trace.footer
            outcome = (
                f"error reproduced ({f['error']})"
                if f.get("error")
                else f"sc_ok={f.get('sc_ok')}"
            )
            return (
                f"replay OK: {len(self.trace.records)} records matched, "
                f"{outcome}"
            )
        lines = ["replay DIVERGED:"]
        if self.divergence is not None:
            lines.append(self.divergence.describe())
        for mismatch in self.footer_mismatches:
            lines.append(f"  footer mismatch: {mismatch}")
        return "\n".join(lines)


def replay_trace(trace: Trace) -> ReplayResult:
    """Re-run a trace's workload and verify divergence-free execution."""
    trace.validate()
    header = trace.header
    replayed = record_run(cell_from_header(header), kind=header["kind"])
    result = ReplayResult(trace=trace, replayed=replayed)
    recorded_draws = int(trace.footer.get("rng_draws", -1))
    replayed_draws = int(replayed.trace.footer.get("rng_draws", -1))
    old, new = trace.records, replayed.trace.records
    for i in range(max(len(old), len(new))):
        a = old[i] if i < len(old) else None
        b = new[i] if i < len(new) else None
        if a != b:
            result.divergence = ReplayDivergence(
                index=i,
                recorded=a,
                replayed=b,
                recorded_draws=recorded_draws,
                replayed_draws=replayed_draws,
            )
            break
    for key in _FOOTER_KEYS:
        a, b = trace.footer.get(key), replayed.trace.footer.get(key)
        if a != b:
            result.footer_mismatches.append(f"{key}: recorded={a!r} replayed={b!r}")
    stats_a = trace.footer.get("stats", {})
    stats_b = replayed.trace.footer.get("stats", {})
    if stats_a != stats_b:
        for name in sorted(set(stats_a) | set(stats_b)):
            if stats_a.get(name) != stats_b.get(name):
                result.footer_mismatches.append(
                    f"stats[{name}]: recorded={stats_a.get(name)!r} "
                    f"replayed={stats_b.get(name)!r}"
                )
                break
    return result

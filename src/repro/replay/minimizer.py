"""Failure minimization: delta-debug a failing trace to a minimal repro.

A failing chaos/fault trace usually contains far more injected faults
than the failure needs.  The minimizer shrinks it in three steps:

1. **Scripting** — the trace's ``fault`` records are lifted into an
   explicit ``{seq: fault}`` schedule (the injection points are
   numbered by the injector's per-channel sequence counters), and the
   run is re-driven as the trace's cell carrying that script, so its
   :class:`~repro.faults.injector.FaultInjector` follows the script
   instead of drawing.  This must reproduce the failure — it is the same
   fault schedule, minus the randomness that generated it.
2. **ddmin over faults** — classic delta debugging (Zeller's ddmin)
   over the fault schedule: try subsets and complements with
   progressively finer partitions until the schedule is 1-minimal
   (removing any single fault makes the failure vanish).
3. **Thread dropping** — greedily try emptying each thread's program
   (highest index first); keep a drop when the shrunken workload still
   fails under the current schedule.

The winner is re-recorded as a ``kind="minimized"`` trace whose header
carries the fault script, so ``replay run`` re-drives it exactly and
``replay minimize`` output is itself a rerunnable artifact.

"Still fails" means the same failure *class* as the original trace: a
typed :class:`~repro.errors.ReproError` if the original errored, else
an SC-witness failure or forbidden litmus outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.replay.recorder import CellRun, cell_from_header, record_run, replay_cell
from repro.replay.schema import Trace
from repro.replay.workload import select_litmus_tests

#: One scripted fault entry: (channel, seq, payload-dict).
_FaultEntry = Tuple[str, int, dict]


class MinimizeError(ReproError):
    """The failing trace could not be minimized (e.g. not reproducible)."""


@dataclass
class MinimizeResult:
    """Outcome of minimizing one failing trace."""

    original_faults: int
    minimized_faults: int
    dropped_threads: List[int]
    runs_tested: int
    trace: Trace
    error: Optional[str]

    @property
    def strictly_smaller(self) -> bool:
        return self.minimized_faults < self.original_faults or bool(
            self.dropped_threads
        )

    def describe(self) -> str:
        return (
            f"minimized {self.original_faults} -> {self.minimized_faults} "
            f"fault(s), dropped threads {self.dropped_threads or 'none'}, "
            f"{self.runs_tested} candidate runs; failure: "
            f"{self.error or 'SC violation / forbidden outcome'}"
        )


def _fault_entries(trace: Trace) -> List[_FaultEntry]:
    entries: List[_FaultEntry] = []
    for record in trace.fault_records:
        data = record.data
        channel = str(data.get("channel", "deliver"))
        seq = int(data.get("seq", -1))
        if seq < 0:
            continue  # legacy record without sequencing — cannot script it
        if channel == "deliver":
            payload = {"kind": data["kind"], "extra": float(data.get("extra", 0.0))}
        elif channel == "crash":
            # seq is the per-point occurrence; detail is the target name.
            payload = {"point": str(data.get("point")), "target": str(data["detail"])}
        else:
            payload = {"victims": list(data.get("victims", ()))}
        entries.append((channel, seq, payload))
    return entries


def _script_from(entries: Sequence[_FaultEntry]) -> dict:
    script: Dict[str, dict] = {"deliver": {}, "storm": {}, "squash": {}, "crash": {}}
    for channel, seq, payload in entries:
        if channel == "deliver":
            script["deliver"][str(seq)] = payload
        elif channel == "crash":
            script["crash"][f"{payload['point']}:{seq}"] = payload["target"]
        else:
            script[channel][str(seq)] = payload["victims"]
    return script


class _Minimizer:
    def __init__(self, trace: Trace, budget: int):
        trace.validate()
        self.trace = trace
        self.cell = cell_from_header(trace.header)
        self.budget = budget
        self.runs_tested = 0
        original_error = trace.footer.get("error")
        #: Failure class: a typed error, or an SC/forbidden wrong answer.
        self.expect_error = original_error is not None

    def _fails(self, run: CellRun) -> bool:
        if self.expect_error:
            return run.error is not None
        return run.failed

    def _try(self, entries: Sequence[_FaultEntry], dropped: Sequence[int]) -> bool:
        if self.runs_tested >= self.budget:
            return False
        self.runs_tested += 1
        run = self._record(entries, dropped)
        return self._fails(run)

    def _record(
        self, entries: Sequence[_FaultEntry], dropped: Sequence[int],
        kind: str = "run",
    ) -> CellRun:
        """Run a candidate: the trace's cell under a script, minus threads."""
        spec = dict(self.cell.workload)
        if dropped:
            spec["dropped_threads"] = sorted(dropped)
        else:
            spec.pop("dropped_threads", None)
        candidate = replay_cell(
            spec,
            config=self.cell.config,
            seed=self.cell.seed,
            # Retries as recorded; the script replaces plan and crashes.
            fault=replace(self.cell.fault, faults="", rate=None, crashes=()),
            fault_script=_script_from(entries),
            max_events=self.cell.max_events,
            denials=self.cell.denials,
        )
        return record_run(candidate, kind=kind)

    # ------------------------------------------------------------------
    def _ddmin(self, entries: List[_FaultEntry]) -> List[_FaultEntry]:
        """Zeller's ddmin: reduce to a 1-minimal failing subset."""
        n = 2
        while len(entries) >= 2:
            chunk = max(1, len(entries) // n)
            subsets = [
                entries[i:i + chunk] for i in range(0, len(entries), chunk)
            ]
            reduced = False
            for i, subset in enumerate(subsets):
                if self._try(subset, ()):
                    entries = list(subset)
                    n = 2
                    reduced = True
                    break
                complement = [
                    e for j, s in enumerate(subsets) if j != i for e in s
                ]
                if complement and len(complement) < len(entries) and self._try(
                    complement, ()
                ):
                    entries = complement
                    n = max(2, n - 1)
                    reduced = True
                    break
            if not reduced:
                if n >= len(entries):
                    break
                n = min(len(entries), 2 * n)
            if self.runs_tested >= self.budget:
                break
        if len(entries) == 1 and self._try([], ()):
            # Degenerate: the workload fails with no faults at all.
            return []
        return entries

    def _drop_threads(
        self, entries: List[_FaultEntry]
    ) -> List[int]:
        spec = self.cell.workload
        if spec.get("kind") == "litmus":
            (test,) = select_litmus_tests(spec["test"])
            num_threads = len(test.build({var: 0 for var in test.variables}))
        else:
            num_threads = len(self.trace.footer.get("registers", {}))
        dropped: List[int] = list(spec.get("dropped_threads", ()))
        for proc in reversed(range(num_threads)):
            if proc in dropped:
                continue
            candidate = sorted(dropped + [proc])
            if len(candidate) >= num_threads:
                continue  # keep at least one live thread
            if self._try(entries, candidate):
                dropped = candidate
        return dropped

    # ------------------------------------------------------------------
    def minimize(self) -> MinimizeResult:
        entries = _fault_entries(self.trace)
        original_faults = len(self.trace.fault_records)
        # Step 0: the scripted full schedule must reproduce the failure.
        baseline = self._record(entries, self.cell.workload.get(
            "dropped_threads", ()
        ))
        self.runs_tested += 1
        if not self._fails(baseline):
            raise MinimizeError(
                "scripted re-run of the full fault schedule did not "
                "reproduce the failure — the trace is not minimizable "
                f"(original: {self.trace.footer.get('error') or 'SC failure'}, "
                f"scripted: {baseline.error or 'clean'})"
            )
        entries = self._ddmin(entries)
        dropped = self._drop_threads(entries)
        final = self._record(entries, dropped, kind="minimized")
        if not self._fails(final):  # pragma: no cover - ddmin guarantees this
            raise MinimizeError("minimized candidate stopped failing on re-run")
        return MinimizeResult(
            original_faults=original_faults,
            minimized_faults=len(entries),
            dropped_threads=list(dropped),
            runs_tested=self.runs_tested,
            trace=final.trace,
            error=final.error,
        )


def minimize_trace(trace: Trace, budget: int = 200) -> MinimizeResult:
    """Delta-debug a failing trace down to a minimal rerunnable repro.

    Args:
        trace: A trace whose footer records a failure (typed error, SC
            witness failure, or forbidden litmus outcome).
        budget: Maximum candidate runs to test (each is a full, bounded
            simulation; litmus-scale runs are milliseconds).

    Raises:
        MinimizeError: If the trace does not record a failure, or the
            scripted fault schedule fails to reproduce it.
    """
    failed = (
        trace.footer.get("error") is not None
        or trace.footer.get("sc_ok") is False
        or bool(trace.footer.get("forbidden"))
    )
    if not failed:
        raise MinimizeError(
            "trace records a passing run; nothing to minimize"
        )
    return _Minimizer(trace, budget).minimize()

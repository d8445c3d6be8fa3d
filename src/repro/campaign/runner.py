"""Sharded, checkpointed, resumable campaign execution.

The runner turns the deterministic cell queue into durable evidence:

* cells are executed in canonical order, ``shard_size`` at a time, each
  shard fanned over :func:`repro.harness.parallel.parallel_map` with a
  per-cell wall-clock ``cell_timeout`` and bounded retry-with-backoff
  for workers that die mid-cell;
* each shard's results are appended to the store as one durability
  batch together with its checkpoint record, so a ``kill -9`` loses at
  most the shard in flight — never a persisted result;
* when the fork pool keeps failing (a shard whose crashes survive even
  the in-pool retries), the runner re-runs the crashed cells serially
  in-process, and after ``DEGRADE_AFTER`` such shards it degrades the
  whole campaign to serial execution for the rest of the session;
* cells that fail *diagnosably* (typed error, SC violation, forbidden
  outcome) are re-recorded as replayable traces and fed to the PR 3
  ddmin minimizer; both artifacts land under ``<store>/traces/``.

Cell execution — fan-out, retries, the serial fallback and infra
outcomes — is :func:`execute_cells`, which the in-memory ``chaos``
front-end (:func:`repro.faults.chaos.run_chaos`) runs its grid through
too.  :func:`execute_cell` runs a simulation cell through
:func:`repro.replay.recorder.run_cell`, the one run path it shares with
the replay recorder.

Aggregates are computed from the store in canonical cell order, purely
from deterministic per-cell outcome payloads — which is what makes a
killed-and-resumed campaign's final report bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.campaign.queue import CampaignCell, cells_by_key, expand_cells
from repro.campaign.report import aggregate_report
from repro.campaign.store import CampaignStore
from repro.errors import ReproError
from repro.harness.parallel import CellFailure, default_jobs, parallel_map

#: After this many shards needed the serial fallback, stop forking
#: altogether for the rest of the session.
DEGRADE_AFTER = 2

#: Upper bound on ddmin candidate runs per minimized failure.
MINIMIZE_BUDGET = 80


@dataclass
class RunnerOptions:
    """Execution knobs (none of these affect any cell's *outcome*)."""

    jobs: int = 1
    shard_size: int = 64
    cell_timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05
    minimize: bool = True
    max_minimize: int = 3
    #: Advisory wall-clock lease on each shard claim: `campaign status`
    #: flags in-flight claims older than this as stale (runner likely
    #: dead).  Purely informational — resume re-runs in-flight cells
    #: whether or not their lease lapsed.
    claim_lease: float = 900.0


def _outcome(cell: CampaignCell, **fields) -> dict:
    """A cell's outcome payload: the shared defaults, then ``fields``."""
    outcome: Dict[str, object] = {
        "key": cell.key,
        "name": cell.name,
        "status": "ok",
        "error": None,
        "cycles": 0.0,
        "faults_injected": 0,
        "fault_summary": "",
        "sc_reason": "",
        "crashes": 0,
        "recovery_cycles": 0.0,
    }
    outcome.update(fields)
    return outcome


def _execute_contracts_cell(cell: CampaignCell) -> dict:
    """Statically contract-check a recorded trace (no simulation).

    Outcome statuses: ``ok``, ``contract-violation`` (with localized
    witnesses in the payload), or ``error`` (unreadable/invalid trace).
    """
    from repro.contracts.checker import check_trace
    from repro.replay.schema import read_trace

    component = cell.workload.get("component", "all")
    components = None if component == "all" else [component]
    try:
        trace = read_trace(cell.workload["trace"])
        report = check_trace(trace, components=components)
    except (ReproError, OSError) as exc:
        return _outcome(cell, status="error", error=f"{type(exc).__name__}: {exc}")
    outcome = _outcome(
        cell,
        contracts={
            "failing": list(report.failing_components),
            "witnesses": [w.payload() for w in report.witnesses[:10]],
        },
    )
    if not report.ok:
        outcome["status"] = "contract-violation"
        outcome["sc_reason"] = report.witnesses[0].describe()
    return outcome


def execute_cell(cell: CampaignCell) -> dict:
    """Run one cell and return its pure-data outcome payload.

    Deterministic per cell: the injector is forked from the cell's
    :meth:`~repro.campaign.queue.CampaignCell.injector_identity`, so
    re-running an in-flight cell after a crash reproduces the identical
    outcome.  Never raises for a *simulation* failure — typed errors
    become ``status="error"`` payloads that also carry the injected
    faults as ``fault_trace`` (:class:`~repro.faults.injector.FaultRecord`
    field dicts); an untyped exception is a harness bug and propagates.

    ``contracts`` cells never touch the simulator: they statically
    check a recorded trace against the component contracts.  Every
    other cell runs through :func:`repro.replay.recorder.run_cell`.
    """
    if cell.workload.get("kind") == "contracts":
        return _execute_contracts_cell(cell)

    from repro.replay.recorder import run_cell

    run = run_cell(cell)
    injector = run.injector
    if run.error is not None:
        return _outcome(
            cell,
            status="error",
            error=run.error,
            faults_injected=injector.total_injected,
            fault_summary=injector.summary(),
            fault_trace=[asdict(record) for record in run.fault_trace],
            crashes=injector.crashes_fired,
        )
    return _outcome(
        cell,
        status=run.status,
        cycles=run.result.cycles,
        faults_injected=injector.total_injected,
        fault_summary=injector.summary(),
        sc_reason=run.sc_reason if run.status == "sc-violation" else "",
        crashes=injector.crashes_fired,
        recovery_cycles=run.result.stat("recovery.total_cycles.mean"),
    )


def _infra_outcome(cell: CampaignCell, failure: CellFailure) -> dict:
    """Outcome payload for a cell the harness (not the simulator) lost."""
    return _outcome(
        cell,
        status="timeout" if failure.kind == "timeout" else "worker-crash",
        error=failure.error,
        attempts=failure.attempts,
    )


def execute_cells(
    cells: Sequence[CampaignCell],
    options: RunnerOptions,
    serial: bool = False,
    on_crash: Optional[Callable[[int], None]] = None,
) -> Iterator[dict]:
    """Yield each cell's :func:`execute_cell` outcome, in cell order.

    With one job (or ``serial``) and no ``cell_timeout`` the cells run
    in-process and lazily, so a caller that stops consuming never
    starts the remaining cells.  Otherwise they fan out over
    :func:`~repro.harness.parallel.parallel_map` with the options'
    timeout, retries and backoff.  Cells whose workers kept dying
    through the retries are re-run serially in-process (``on_crash`` is
    told how many first); a cell the harness still lost yields an
    :func:`_infra_outcome`.
    """
    jobs = 1 if serial else options.jobs or default_jobs()
    if jobs <= 1 and options.cell_timeout is None:
        for cell in cells:
            yield execute_cell(cell)
        return
    results = parallel_map(
        execute_cell,
        cells,
        jobs=jobs,
        timeout=options.cell_timeout,
        retries=options.retries,
        backoff=options.backoff,
        failure_mode="return",
    )
    crashed = sum(
        1 for r in results if isinstance(r, CellFailure) and r.kind == "crash"
    )
    if crashed and on_crash is not None:
        on_crash(crashed)
    for cell, result in zip(cells, results):
        if isinstance(result, CellFailure) and result.kind == "crash":
            try:
                result = execute_cell(cell)
            except ReproError:
                pass  # keep the infra failure on record
        yield _infra_outcome(cell, result) if isinstance(result, CellFailure) else result


def _minimize_failures(
    store: CampaignStore,
    cells: List[CampaignCell],
    outcomes: Dict[str, dict],
    options: RunnerOptions,
    say: Callable[[str], None],
) -> None:
    """Re-record + ddmin-minimize failing cells into ``traces/``.

    Each re-recorded failure is also contract-checked so the progress
    log names the component whose ordering contract broke (localized
    witnesses), not just the whole-run verdict.
    """
    from repro.contracts.checker import check_trace, localized_summary
    from repro.replay.minimizer import minimize_trace
    from repro.replay.recorder import record_run

    already = {t["key"] for t in store.load().traces}
    budget = options.max_minimize
    for cell in cells:
        if budget <= 0:
            break
        outcome = outcomes.get(cell.key)
        if outcome is None or cell.key in already:
            continue
        if outcome["status"] not in ("error", "sc-violation", "forbidden"):
            continue
        budget -= 1
        say(f"minimizing failing cell {cell.name}")
        try:
            recorded = record_run(cell, kind="chaos")
            store.save_trace(recorded.trace, cell.key)
            contract_report = check_trace(recorded.trace)
            say("  " + localized_summary(contract_report, limit=1))
            store.append(
                {
                    "type": "contracts",
                    "key": cell.key,
                    "ok": contract_report.ok,
                    "failing": list(contract_report.failing_components),
                    "witnesses": [
                        w.payload() for w in contract_report.witnesses[:10]
                    ],
                }
            )
            minimized = minimize_trace(recorded.trace, budget=MINIMIZE_BUDGET)
            store.save_trace(minimized.trace, cell.key, minimized=True)
            say(f"  {minimized.describe()}")
        except ReproError as exc:
            store.append(
                {
                    "type": "trace",
                    "key": cell.key,
                    "minimized": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "ts": time.time(),  # detlint: ok[DET003] — log-envelope timestamp, never aggregated
                }
            )
            say(f"  minimization failed: {exc}")


def run_campaign(
    store: CampaignStore,
    options: Optional[RunnerOptions] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Execute (or resume) a campaign to completion; returns the report.

    Finished cells in the store are skipped; claimed-but-unresolved
    (in-flight) cells re-run.  The returned payload is also written to
    ``<store>/report.json`` atomically.
    """
    options = options or RunnerOptions()
    say = progress or (lambda message: None)
    spec = store.spec
    cells = expand_cells(spec)
    unique = cells_by_key(cells)
    queue_cells = [c for c in cells if unique[c.key] is c]  # dedup by memo key
    if store.trim_torn_tail():
        say("dropped a torn tail line from the log (killed mid-append)")
    state = store.load()
    done = state.done_keys
    pending = [c for c in queue_cells if c.key not in done]
    requeued = [c for c in pending if c.key in state.in_flight_keys]
    store.log_session(
        "resume" if done or state.claimed else "run",
        jobs=options.jobs,
        pending=len(pending),
        done=len(done),
        requeued=len(requeued),
    )
    say(
        f"campaign {spec.name!r}: {len(queue_cells)} cells "
        f"({len(done)} done, {len(pending)} to run"
        + (f", {len(requeued)} re-queued in-flight" if requeued else "")
        + ")"
    )
    degraded = 0
    shard_index = len(state.checkpoints)

    def degrade(crashed: int) -> None:
        # The pool's own retries were exhausted: the executor re-runs
        # the current shard's lost cells serially in-process.
        nonlocal degraded
        degraded += 1
        store.append(
            {
                "type": "degrade",
                "shard": shard_index,
                "crashed": crashed,
                "permanent": degraded >= DEGRADE_AFTER,
                "ts": time.time(),  # detlint: ok[DET003] — log-envelope timestamp, never aggregated
            }
        )
        say(
            f"shard {shard_index}: {crashed} worker crash(es) "
            f"survived retries — re-running serially"
            + (" (degrading to serial)" if degraded >= DEGRADE_AFTER else "")
        )

    for start in range(0, len(pending), options.shard_size):
        shard = pending[start : start + options.shard_size]
        claimed_at = time.time()  # detlint: ok[DET003] — log-envelope timestamp, never aggregated
        store.append(
            {
                "type": "claim",
                "shard": shard_index,
                "keys": [c.key for c in shard],
                "ts": claimed_at,
                "lease_expires_ts": claimed_at + options.claim_lease,
            }
        )
        shard_started = time.monotonic()  # detlint: ok[DET003] — shard wall-clock bookkeeping
        outcomes = list(
            execute_cells(
                shard, options, serial=degraded >= DEGRADE_AFTER, on_crash=degrade
            )
        )
        elapsed = time.monotonic() - shard_started  # detlint: ok[DET003] — shard wall-clock bookkeeping
        records = []
        for cell, outcome in zip(shard, outcomes):
            # The fault trace only rides back to in-memory callers; the
            # log keeps slim outcomes, and failing cells are re-recorded
            # as replay traces under traces/ instead.
            outcome.pop("fault_trace", None)
            records.append(
                {
                    "type": "result",
                    "key": cell.key,
                    "name": cell.name,
                    "outcome": outcome,
                    "elapsed": elapsed / max(1, len(shard)),
                }
            )
        records.append(
            {
                "type": "checkpoint",
                "shard": shard_index,
                "cells": len(shard),
                "done": len(done) + start + len(shard),
                "elapsed": elapsed,
                "ts": time.time(),  # detlint: ok[DET003] — log-envelope timestamp, never aggregated
            }
        )
        # One write + one fsync: the checkpoint lands atomically with
        # the results it covers.
        store.append_many(records)
        shard_index += 1
        say(
            f"shard {shard_index} checkpointed: "
            f"{len(done) + start + len(shard)}/{len(queue_cells)} cells "
            f"({elapsed:.1f}s)"
        )
    final = store.load()
    outcomes = {key: final.results[key]["outcome"] for key in final.results}
    if options.minimize:
        _minimize_failures(store, queue_cells, outcomes, options, say)
    payload = aggregate_report(spec, queue_cells, outcomes)
    store.save_report(payload)
    return payload

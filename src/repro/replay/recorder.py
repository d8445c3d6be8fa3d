"""The trace recorder: observe a run, emit a reconstructible trace.

:class:`TraceRecorder` subscribes to the machine's chunk-lifecycle event
stream (:meth:`repro.system.Machine.subscribe`) and turns each event into
one versioned :class:`~repro.replay.schema.TraceRecord`.  Subscribers
only read the live objects they are handed, so attaching a recorder
cannot change a simulation's outcome (the tools tests assert this
bit-for-bit).  It records:

* the chunk lifecycle on every BulkSC driver (start/close/grant/commit/
  squash), in the shape :func:`chunk_record_data` shares with
  :class:`~repro.tools.chunk_trace.ChunkTracer`;
* every arbiter decision (one record per request: grant/deny/need-R);
* the commit engine's serialization instant (the chunk's position in
  the SC total order), enriched with the grant epoch, the chunk's op
  list, and its true line footprints — the interface events the
  contract layer (:mod:`repro.contracts`) replays;
* each directory BDM's signature expansion (``dir.expand``);
* invalidation delivery to each victim processor, enriched with the
  independently recomputed signature-conflict and true-conflict sets
  (ground truth for the BDM disambiguation contract);
* every injected fault and every arbiter crash-recovery transition.

A run is described once, as a :class:`~repro.campaign.queue.CampaignCell`
(config, seed, workload spec, fault variant, injector identity, an
optional fault script and an optional forced-denial schedule).
:func:`run_cell` is the one place such a run is assembled and
classified; :func:`record_run` runs a cell with a recorder
attached under the header :func:`cell_header` builds from it, and
:func:`cell_from_header` turns a header back into its cell — which is
how :func:`repro.replay.replayer.replay_trace` and the minimizer re-drive
a trace.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ReproError
from repro.faults.injector import FaultInjector, FaultRecord
from repro.faults.plan import FaultPlan, crash_script_from
from repro.params import CERTIFY_MAX_EVENTS, NAMED_CONFIGS
from repro.replay.schema import (
    MAX_RECORDS,
    Trace,
    TraceRecord,
    make_header,
    write_trace,
)
from repro.replay.workload import build_workload, workload_name
from repro.signatures.base import collides
from repro.verify.sc_checker import check_sequential_consistency

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.queue import CampaignCell
    from repro.campaign.spec import FaultVariant
    from repro.system import Machine, RunResult


def chunk_record_data(ev: str, chunk, detail: str = "") -> Dict[str, object]:
    """The ``data`` of a ``chunk.*`` trace record.

    ``detail`` is the close reason for ``chunk.close``.  Shared by
    :class:`TraceRecorder` and :class:`~repro.tools.chunk_trace.ChunkTracer`,
    so both render one chunk transition identically.
    """
    if ev == "chunk.commit":
        detail = f"{chunk.instructions} instr"
    elif ev == "chunk.squash":
        detail = f"{chunk.instructions} instr lost"
    data: Dict[str, object] = {"chunk": chunk.chunk_id}
    if detail:
        data["detail"] = detail
    return data


class TraceRecorder:
    """Records a machine's scheduling/protocol event stream as a trace."""

    def __init__(self, machine: "Machine", header: dict):
        #: Weak: the machine's subscriber list holds the recorder.
        self.machine = weakref.proxy(machine)
        self.header = header
        self.records: List[TraceRecord] = []
        self._seq = 0
        self._elided = 0

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, machine: "Machine", header: dict) -> "TraceRecorder":
        """Subscribe a recorder to a (not yet run) machine's event stream."""
        recorder = cls(machine, header)
        machine.subscribe(recorder.on_event)
        return recorder

    def on_event(self, ev: str, p: Optional[int], *payload) -> None:
        """Turn one event-stream event into one trace record."""
        if ev.startswith("chunk."):
            data = chunk_record_data(ev, *payload)
            if ev == "chunk.grant":
                # The lease is renewed across arbiter crashes before the
                # grant is (re-)accepted, so an accepted grant always
                # shows the live epoch — the recovery contract's
                # dead-epoch clause audits exactly this field.
                lease = self._lease_for(payload[0])
                if lease is not None:
                    data["epoch"] = lease
            self._record(ev, p, data)
        elif ev == "arb.decide":
            (decision,) = payload
            if decision.needs_r_signature:
                kind = "arb.need_r"
            elif decision.granted:
                kind = "arb.grant"
            else:
                kind = "arb.deny"
            self._record(kind, p, {"reason": decision.reason})
        elif ev == "commit.serialize":
            (txn,) = payload
            chunk = txn.chunk
            self._record(
                ev,
                p,
                {
                    "chunk": chunk.chunk_id,
                    "commit": txn.commit_id,
                    # The lease the grant was issued under (set just
                    # before serialization) — the epoch the arbiter and
                    # recovery contracts audit.
                    "epoch": list(txn.lease) if txn.lease else None,
                    # The chunk's op log, in program order: the exact
                    # data the commit engine publishes into the history
                    # at this instant, so the composition checker can
                    # replay the SC order from interface events alone.
                    "ops": [
                        [1 if is_store else 0, word_addr, value, program_index]
                        for is_store, word_addr, value, program_index in chunk.ops
                    ],
                    "w_lines": sorted(chunk.true_written_lines),
                    "r_lines": sorted(chunk.true_read_lines),
                },
            )
        elif ev == "inv.deliver":
            (txn,) = payload
            self._on_deliver(p, txn)
        elif ev == "dir.expand":
            index, chunk, lines, outcome = payload
            self._record(
                ev,
                None,
                {
                    "dir": index,
                    "committer": chunk.proc,
                    "lines": sorted(lines),
                    "invalidation_list": sorted(outcome.invalidation_list),
                    "lookups": outcome.lookups,
                },
            )
        elif ev == "fault":
            (record,) = payload
            self._record(ev, None, record.trace_data())
        else:  # arb.crash / arb.reconstruct / arb.recovered
            (event,) = payload
            data: Dict[str, object] = {"target": event.target, "epoch": event.epoch}
            data.update(event.data)
            self._record(ev, None, data)

    def _lease_for(self, chunk) -> Optional[list]:
        for txn in self.machine.commit_engine.inflight_transactions():
            if txn.chunk is chunk and txn.lease:
                return list(txn.lease)
        return None

    def _on_deliver(self, proc: int, txn) -> None:
        # Recompute both conflict sets *independently* of the BDM the
        # delivery is about to run: the signature predicate straight from
        # the victim's active chunks, and the ground-truth line
        # intersection.  A BDM that under-reports (or a filter that hides
        # a true conflict) is then visible in the trace itself.
        chunk = txn.chunk
        sig_conflicts = []
        true_conflicts = []
        for local in self.machine.bdms[proc].active_chunks():
            if not local.is_active:
                continue
            if collides(chunk.w_sig, local.r_sig, local.w_sig):
                sig_conflicts.append(local.chunk_id)
            touched = local.true_read_lines | local.true_written_lines
            if touched & chunk.true_written_lines:
                true_conflicts.append(local.chunk_id)
        self._record(
            "inv.deliver",
            proc,
            {
                "chunk": chunk.chunk_id,
                "committer": chunk.proc,
                "commit": txn.commit_id,
                "w_lines": sorted(chunk.true_written_lines),
                "sig_conflicts": sorted(sig_conflicts),
                "true_conflicts": sorted(true_conflicts),
            },
        )

    def _record(self, ev: str, p: Optional[int], data: Dict[str, object]) -> None:
        if len(self.records) >= MAX_RECORDS:
            self._elided += 1
            return
        self._seq += 1
        self.records.append(
            TraceRecord(seq=self._seq, t=self.machine.sim.now, ev=ev, p=p, data=data)
        )

    # ------------------------------------------------------------------
    def finish(
        self,
        result: Optional["RunResult"] = None,
        error: Optional[str] = None,
        forbidden: Optional[bool] = None,
        check=None,
    ) -> Trace:
        """Build the footer from the machine's end state and close the trace.

        ``check`` is the run's SC verdict when the caller already has it;
        otherwise a finished run with history is checked here.
        """
        machine = self.machine
        if check is None and error is None and machine.history.enabled:
            check = check_sequential_consistency(machine.history)
        sc_ok = None if check is None else check.ok
        sc_reason = "" if check is None else check.reason
        footer = {
            "footer": True,
            "records": len(self.records),
            "records_elided": self._elided,
            "cycles": result.cycles if result is not None else machine.sim.now,
            "final_memory": {
                str(addr): value
                for addr, value in sorted(machine.memory.nonzero_words().items())
            },
            "registers": {
                str(t.proc): dict(t.registers) for t in machine.threads
            },
            "io_log": [list(entry) for entry in machine.io_log],
            "sc_ok": sc_ok,
            "sc_reason": sc_reason,
            "forbidden": forbidden,
            "error": error,
            "rng_draws": machine.sim.rng.draws,
            "injector_draws": machine.fault_injector.rng.draws,
            "total_faults": machine.fault_injector.total_injected,
            "stats": machine.stats.snapshot(),
        }
        return Trace(header=self.header, records=self.records, footer=footer)


# ----------------------------------------------------------------------
# The one fault-injected run path
# ----------------------------------------------------------------------

@dataclass
class CellRun:
    """One simulated cell: its result or typed error, its verdicts, and
    its trace when it was recorded."""

    injector: FaultInjector
    result: Optional["RunResult"]
    #: ``"TypeName: message"`` when the run raised a typed ReproError.
    error: Optional[str]
    #: The injected faults (the typed error's own trace when it has one).
    fault_trace: List[FaultRecord]
    #: The SC checker's verdict; ``None`` when the run raised.
    sc_ok: Optional[bool]
    sc_reason: str
    #: Whether a finished litmus run shows a forbidden outcome, else ``None``.
    forbidden: Optional[bool]
    trace: Optional[Trace] = None

    @property
    def status(self) -> str:
        """``error``, ``sc-violation``, ``forbidden`` or ``ok``."""
        if self.error is not None:
            return "error"
        if not self.sc_ok:
            return "sc-violation"
        return "forbidden" if self.forbidden else "ok"

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def force_denials(machine: "Machine", denials: Iterable[Tuple[int, int]]) -> None:
    """Wrap the arbiter to deny the first ``n`` grants to each ``proc``.

    ``denials`` holds ``(proc, n)`` pairs (or is a ``{proc: n}`` dict).
    The wrapper turns would-be grants into denials — a response the
    protocol already handles via retry — so commit order is permuted
    without ever forging a grant or touching arbiter bookkeeping
    (``decide`` is stateless; admission happens separately).  It wraps
    the commit engine's handle on the machine's one arbiter front end
    (the engine is the only caller of ``decide``), so it works on both
    topologies.
    """
    engine = machine.commit_engine
    if engine is None:
        return
    engine.arbiter = _ForcedDenials(engine.arbiter, dict(denials))


class _ForcedDenials:
    """The arbiter front end as the commit engine sees it under
    :func:`force_denials`: ``decide`` turns the first ``n`` grants to each
    processor into denials, every other call goes to the real front end.
    """

    def __init__(self, arbiter, remaining: Dict[int, int]):
        self._arbiter = arbiter
        self._remaining = remaining

    def __getattr__(self, name: str):
        return getattr(self._arbiter, name)

    def decide(self, proc, *args, **kwargs):
        decision = self._arbiter.decide(proc, *args, **kwargs)
        remaining = self._remaining
        if decision.granted and remaining.get(proc, 0) > 0:
            remaining[proc] -= 1
            return replace(decision, granted=False, reason="forced denial")
        return decision


def run_cell(cell: "CampaignCell", header: Optional[dict] = None) -> CellRun:
    """Run one campaign cell; with a ``header``, record it as a trace.

    The only code that assembles a fault-injected run: it resolves the
    cell's config (retries off under ``no_retry``), builds its workload,
    its :class:`~repro.faults.injector.FaultInjector` (drawn from the
    cell's plan and injector identity, or following its fault script,
    plus its scripted crashes) and its machine, applies its forced
    denials, runs it with a :class:`TraceRecorder` subscribed when
    ``header`` is given, and classifies the result.
    :func:`repro.campaign.runner.execute_cell`, ``replay explore`` and
    ``repro litmus`` run cells without a recorder; :func:`record_run`
    with one.
    """
    from repro.system import Machine

    if cell.config not in NAMED_CONFIGS:
        raise ReproError(f"unknown configuration {cell.config!r}")
    config = NAMED_CONFIGS[cell.config](seed=cell.seed)
    if cell.fault.no_retry:
        config = config.with_resilience(retries_enabled=False)
    spec = cell.workload_spec()
    programs, space, test = build_workload(spec, config)
    plan = (
        FaultPlan.parse(cell.fault.faults, rate=cell.fault.rate)
        if cell.fault.faults
        else FaultPlan.none()
    )
    injector_seed, injector_label = cell.injector_identity()
    injector = FaultInjector(
        plan, seed=injector_seed, label=injector_label, script=cell.fault_script
    )
    injector.crash_script.update(crash_script_from(cell.fault.crashes))
    machine = Machine(
        config, programs, space, record_history=True, fault_injector=injector
    )
    if cell.denials:
        force_denials(machine, cell.denials)
    recorder = None if header is None else TraceRecorder.attach(machine, header)
    result = None
    error = None
    fault_trace = injector.trace
    try:
        result = machine.run(max_events=cell.max_events)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
        fault_trace = getattr(exc, "fault_trace", None) or injector.trace
    check = None if error is not None else check_sequential_consistency(machine.history)
    forbidden = None
    if test is not None and result is not None and not spec.get("dropped_threads"):
        # A workload with dropped threads is no longer the litmus test;
        # its forbidden-outcome predicate reads registers that were
        # never written.
        forbidden = bool(test.forbidden(result.registers))
    return CellRun(
        injector=injector,
        result=result,
        error=error,
        fault_trace=fault_trace,
        sc_ok=None if check is None else check.ok,
        sc_reason="" if check is None else check.reason,
        forbidden=forbidden,
        trace=None if recorder is None else recorder.finish(result, error, forbidden, check),
    )


def replay_cell(
    spec: dict,
    config: str = "BSCdypvt",
    seed: int = 0,
    fault: Optional["FaultVariant"] = None,
    fault_script: Optional[dict] = None,
    max_events: int = CERTIFY_MAX_EVENTS,
    denials: Tuple[Tuple[int, int], ...] = (),
) -> "CampaignCell":
    """The cell ``replay record`` (and ``explore`` and ``litmus``) runs:
    one workload spec at one seed.

    Its injector is forked from the run seed and labelled
    ``replay/<workload name>``.
    """
    from repro.campaign.queue import CampaignCell
    from repro.campaign.spec import FaultVariant

    return CampaignCell(
        index=0,
        config=config,
        workload=dict(spec),
        seed=seed,
        fault=fault or FaultVariant(),
        instructions=spec.get("instructions", 0),
        max_events=max_events,
        injector=(seed, f"replay/{workload_name(spec)}"),
        fault_script=fault_script,
        denials=tuple(denials),
    )


def cell_header(cell: "CampaignCell", kind: str = "run") -> dict:
    """The trace header of a recorded cell; :func:`cell_from_header` inverts it.

    The header's ``faults`` dict is present when the cell has a fault
    plan or disables retries, and then names the injector identity; its
    ``denials`` key only when the cell forces denials.
    """
    fault = cell.fault
    faults = None
    if fault.faults or fault.no_retry:
        injector_seed, injector_label = cell.injector_identity()
        faults = {
            "spelling": fault.faults or None,
            "rate": fault.rate,
            "no_retry": fault.no_retry,
            "injector_seed": injector_seed,
            "injector_label": injector_label,
        }
    return make_header(
        kind=kind,
        config=cell.config,
        seed=cell.seed,
        workload=cell.workload_spec(),
        faults=faults,
        fault_script=cell.fault_script,
        max_events=cell.max_events,
        crashes=list(fault.crashes),
        denials=list(cell.denials),
    )


def cell_from_header(header: dict) -> "CampaignCell":
    """The cell a trace header describes: the run ``replay`` re-drives."""
    from repro.campaign.spec import FaultVariant

    faults = header.get("faults") or {}
    cell = replay_cell(
        header["workload"],
        config=header["config"],
        seed=header["seed"],
        fault=FaultVariant(
            faults=faults.get("spelling") or "",
            rate=faults.get("rate"),
            no_retry=bool(faults.get("no_retry")),
            crashes=tuple(header.get("crashes") or ()),
        ),
        fault_script=header.get("fault_script"),
        max_events=header.get("max_events") or CERTIFY_MAX_EVENTS,
        denials=tuple((proc, n) for proc, n in header.get("denials") or ()),
    )
    if not faults:
        return cell
    return replace(
        cell,
        injector=(
            int(faults.get("injector_seed", cell.seed)),
            faults.get("injector_label") or cell.injector[1],
        ),
    )


def record_run(cell: "CampaignCell", kind: str = "run") -> CellRun:
    """Run one cell with a recorder attached; the run carries its trace.

    The header holds the cell as pure data (:func:`cell_header`), which
    is what makes the run reconstructible by
    :func:`~repro.replay.replayer.replay_trace`.
    """
    return run_cell(cell, cell_header(cell, kind))


def save_chaos_failure(report, path: str) -> Optional[str]:
    """Save a chaos campaign's first failing run as a replayable trace.

    Chaos runs are deterministic per cell, so re-running the failing
    run's cell with a recorder attached reproduces it exactly; the
    resulting artifact replays (and minimizes) stand-alone.  ``path``
    ending in ``.jsonl`` writes a stand-alone trace file.  Any other
    path is treated as a campaign store directory
    (:meth:`repro.campaign.store.CampaignStore.attach`): the trace lands
    under ``<path>/traces/`` next to campaign artifacts and is logged in
    the store's ``log.jsonl``.  Returns the written path, or ``None``
    when every run was certified.
    """
    failing = next((run for run in report.runs if not run.ok), None)
    if failing is None:
        return None
    recorded = record_run(failing.cell, kind="chaos")
    if path.endswith(".jsonl"):
        write_trace(recorded.trace, path)
        return path
    from repro.campaign.store import CampaignStore

    store = CampaignStore.attach(path)
    seed, label = failing.cell.injector_identity()
    return store.save_trace(
        recorded.trace, f"chaos-s{seed}-{label.replace('/', '-')}"
    )

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

:func:`record_run` is the one-call entry point: build the machine from
pure data (a workload spec + config name + fault metadata), run it with
a recorder attached, and return the finished
:class:`~repro.replay.schema.Trace` — the exact inverse of
:func:`repro.replay.replayer.replay_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import ReproError
from repro.faults.injector import (
    FaultInjector,
    ScriptedFault,
    ScriptedFaultInjector,
)
from repro.faults.plan import CrashPoint, FaultPlan, crash_script_from
from repro.params import CERTIFY_MAX_EVENTS, NAMED_CONFIGS
from repro.replay.schema import MAX_RECORDS, Trace, TraceRecord, make_header
from repro.replay.workload import build_workload, workload_name
from repro.signatures.base import collides
from repro.verify.sc_checker import check_sequential_consistency

if TYPE_CHECKING:  # pragma: no cover - typing only
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
        self.machine = machine
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
    ) -> Trace:
        """Build the footer from the machine's end state and close the trace."""
        machine = self.machine
        sc_ok: Optional[bool] = None
        sc_reason = ""
        if error is None and machine.history.enabled:
            check = check_sequential_consistency(machine.history)
            sc_ok = check.ok
            sc_reason = check.reason
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
# One-call record entry point
# ----------------------------------------------------------------------

@dataclass
class RecordedRun:
    """A finished recorded run: the trace plus convenience outcome flags."""

    trace: Trace
    result: Optional["RunResult"]
    error: Optional[str]

    @property
    def sc_ok(self) -> Optional[bool]:
        return self.trace.footer.get("sc_ok")

    @property
    def forbidden(self) -> Optional[bool]:
        return self.trace.footer.get("forbidden")

    @property
    def failed(self) -> bool:
        return (
            self.error is not None
            or self.sc_ok is False
            or bool(self.forbidden)
        )


def _parse_crash_script(entries: dict) -> dict:
    """``{"point:occ": target}`` (JSON spelling) → injector crash script."""
    script = {}
    for key, target in entries.items():
        point, occ = key.rsplit(":", 1)
        script[(point, int(occ))] = target
    return script


def build_injector(
    faults: Optional[dict], fault_script: Optional[dict], default_label: str
) -> FaultInjector:
    """Build the injector described by trace-header fault metadata."""
    if fault_script is not None:
        deliver = {
            int(seq): ScriptedFault(
                kind=entry["kind"], extra=float(entry.get("extra", 0.0))
            )
            for seq, entry in fault_script.get("deliver", {}).items()
        }
        storm = {
            int(seq): tuple(victims)
            for seq, victims in fault_script.get("storm", {}).items()
        }
        squash = {
            int(seq): tuple(victims)
            for seq, victims in fault_script.get("squash", {}).items()
        }
        return ScriptedFaultInjector(
            deliver_script=deliver,
            storm_script=storm,
            squash_script=squash,
            label=default_label,
            crash_script=_parse_crash_script(fault_script.get("crash", {})),
        )
    if faults and faults.get("spelling"):
        plan = FaultPlan.parse(faults["spelling"], rate=faults.get("rate"))
        return FaultInjector(
            plan,
            seed=int(faults.get("injector_seed", 0)),
            label=faults.get("injector_label") or default_label,
        )
    return FaultInjector()


def record_run(
    spec: dict,
    config_name: str = "BSCdypvt",
    seed: int = 0,
    faults: Optional[str] = None,
    rate: Optional[float] = None,
    no_retry: bool = False,
    injector_seed: Optional[int] = None,
    injector_label: Optional[str] = None,
    fault_script: Optional[dict] = None,
    max_events: int = CERTIFY_MAX_EVENTS,
    kind: str = "run",
    crashes: Optional[List[str]] = None,
) -> RecordedRun:
    """Run one workload with a recorder attached and return its trace.

    The argument set is deliberately pure data (strings, ints, dicts):
    the same values are stored in the trace header, which is what makes
    the run reconstructible by :func:`~repro.replay.replayer.replay_trace`.
    ``crashes`` lists scripted arbiter crashes as
    ``POINT:OCCURRENCE[:TARGET]`` spellings (see
    :class:`~repro.faults.plan.CrashPoint`).
    """
    from repro.system import Machine

    if config_name not in NAMED_CONFIGS:
        raise ReproError(f"unknown configuration {config_name!r}")
    config = NAMED_CONFIGS[config_name](seed=seed)
    if no_retry:
        config = config.with_resilience(retries_enabled=False)
    programs, space, test = build_workload(spec, config)
    label = injector_label or f"replay/{workload_name(spec)}"
    faults_meta = None
    if faults:
        faults_meta = {
            "spelling": faults,
            "rate": rate,
            "no_retry": no_retry,
            "injector_seed": injector_seed if injector_seed is not None else seed,
            "injector_label": label,
        }
    elif no_retry:
        faults_meta = {
            "spelling": None,
            "rate": None,
            "no_retry": True,
            "injector_seed": seed,
            "injector_label": label,
        }
    injector = build_injector(faults_meta, fault_script, label)
    crash_points = [CrashPoint.parse(spec_) for spec_ in (crashes or [])]
    if crash_points:
        injector.crash_script = crash_script_from(crash_points)
    header = make_header(
        kind=kind,
        config=config_name,
        seed=seed,
        workload=spec,
        faults=faults_meta,
        fault_script=fault_script,
        max_events=max_events,
        crashes=[cp.canonical() for cp in crash_points],
    )
    machine = Machine(
        config, programs, space, record_history=True, fault_injector=injector
    )
    recorder = TraceRecorder.attach(machine, header)
    result = None
    error = None
    try:
        result = machine.run(max_events=max_events)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    forbidden = None
    if test is not None and result is not None and not spec.get("dropped_threads"):
        # A workload with dropped threads is no longer the litmus test;
        # its forbidden-outcome predicate reads registers that were
        # never written.
        forbidden = bool(test.forbidden(result.registers))
    trace = recorder.finish(result=result, error=error, forbidden=forbidden)
    return RecordedRun(trace=trace, result=result, error=error)


def chaos_failure_run(report) -> Optional[object]:
    """First failing run record of a chaos report, or ``None``."""
    for run in getattr(report, "runs", ()):
        failing = (
            run.error is not None
            or not run.sc_certified
            or run.forbidden_outcome
        )
        if failing and getattr(run, "repro", None):
            return run
    return None


def record_chaos_failure(report) -> Optional[RecordedRun]:
    """Re-record a chaos campaign's first failing run as a trace.

    Chaos runs are deterministic per ``(plan, seed, label)``, so re-driving
    the failing run with a recorder attached reproduces it exactly; the
    resulting artifact replays (and minimizes) stand-alone.  Returns
    ``None`` when every run was certified.
    """
    run = chaos_failure_run(report)
    if run is None:
        return None
    return record_run(
        spec=run.repro["workload"],
        config_name=report.config_name,
        seed=run.repro["config_seed"],
        faults=report.faults_spelling,
        rate=report.rate,
        no_retry=not report.retries_enabled,
        injector_seed=report.seed,
        injector_label=run.repro["injector_label"],
        kind="chaos",
        crashes=list(getattr(report, "crashes_spelling", ()) or ()) or None,
        max_events=CERTIFY_MAX_EVENTS,
    )


def save_chaos_failure(report, path: str) -> Optional[str]:
    """Save a chaos campaign's failing run as a replayable trace artifact.

    ``path`` ending in ``.jsonl`` writes a stand-alone trace file (the
    original contract).  Any other path is treated as a campaign store
    directory (:meth:`repro.campaign.store.CampaignStore.attach`): the
    trace lands under ``<path>/traces/`` next to campaign artifacts and
    is logged in the store's ``log.jsonl`` — one results directory
    instead of scattered trace files.  Returns the written path, or
    ``None`` when every run was certified.
    """
    from repro.replay.schema import write_trace

    recorded = record_chaos_failure(report)
    if recorded is None:
        return None
    if path.endswith(".jsonl"):
        write_trace(recorded.trace, path)
        return path
    from repro.campaign.store import CampaignStore

    store = CampaignStore.attach(path)
    run = chaos_failure_run(report)
    label = run.repro["injector_label"].replace("/", "-")
    return store.save_trace(recorded.trace, f"chaos-s{report.seed}-{label}")

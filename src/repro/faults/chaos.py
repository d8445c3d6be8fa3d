"""Chaos campaigns: randomized fault schedules + the SC oracle.

A campaign runs a batch of workloads — the litmus suite and/or the
synthetic applications — under a seeded :class:`~repro.faults.plan.FaultPlan`
and checks, for every run, that

* the recorded execution history is still certified by
  :func:`repro.verify.sc_checker.check_sequential_consistency`, and
* no litmus test observed an SC-forbidden register outcome.

A run that cannot complete must fail *diagnosably*: the hardened commit
pipeline raises a typed :class:`~repro.errors.ReproError`
(:class:`~repro.errors.CommitTimeoutError`,
:class:`~repro.errors.FaultInducedError`,
:class:`~repro.errors.StarvationError`, ...) carrying the injected-fault
trace, which the campaign records verbatim.  An *untyped* exception or a
silent wrong answer is a bug in the simulator, not a fault outcome.

Everything is deterministic per ``(seed, plan, workload)``: each run gets
its own injector forked from the campaign seed and a per-run label.

:func:`run_chaos` is a front-end over the campaign cell executor
(:func:`repro.campaign.runner.execute_cells`): it lays the grid out as
:class:`~repro.campaign.queue.CampaignCell` objects carrying those
injector identities and folds the outcomes into a :class:`ChaosReport`.
The campaign modules (and through them :mod:`repro.system`) are
imported lazily, so importing this module stays cheap; it must still
not be re-exported from ``repro.faults.__init__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.faults.injector import FaultRecord
from repro.faults.plan import CrashPoint, FaultPlan
from repro.params import CERTIFY_MAX_EVENTS as CHAOS_MAX_EVENTS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.queue import CampaignCell


@dataclass
class ChaosRunRecord:
    """Outcome of one workload under one fault schedule."""

    name: str
    seed: int
    cycles: float = 0.0
    faults_injected: int = 0
    fault_summary: str = ""
    sc_certified: bool = False
    sc_reason: str = ""
    forbidden_outcome: bool = False
    #: Arbiter crashes applied during this run and the mean crash-to-
    #: recovered latency (cycles) across them.
    crashes: int = 0
    recovery_cycles: float = 0.0
    #: ``"TypeName: message"`` when the run raised a typed ReproError.
    error: Optional[str] = None
    #: The :class:`~repro.campaign.queue.CampaignCell` this run was, so a
    #: failing run can be re-run with a recorder attached
    #: (:func:`repro.replay.recorder.save_chaos_failure`).
    cell: Optional["CampaignCell"] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.sc_certified and not self.forbidden_outcome

    @classmethod
    def from_outcome(cls, cell, outcome: dict) -> "ChaosRunRecord":
        """The record of a chaos cell from its campaign outcome payload."""
        __, label = cell.injector_identity()
        status = outcome["status"]
        return cls(
            # Run names are the injector labels with a colon after the
            # workload family: ``litmus:SB/s7/g0``, ``synthetic:fft``.
            name=label.replace("/", ":", 1),
            seed=cell.seed,
            cycles=outcome["cycles"],
            faults_injected=outcome["faults_injected"],
            fault_summary=outcome["fault_summary"],
            sc_certified=status in ("ok", "forbidden"),
            sc_reason=outcome["sc_reason"],
            forbidden_outcome=status == "forbidden",
            crashes=outcome["crashes"],
            recovery_cycles=outcome["recovery_cycles"],
            error=outcome["error"],
            cell=cell,
        )


@dataclass
class ChaosReport:
    """Results of a whole chaos campaign."""

    seed: int
    workload: str
    config_name: str
    plan_description: str
    retries_enabled: bool
    runs: List[ChaosRunRecord] = field(default_factory=list)
    #: Fault trace of the failing run (for diagnosis), if any.
    failure_trace: List[FaultRecord] = field(default_factory=list)
    #: Scripted arbiter-crash specs (canonical spelling), if any.
    crashes_spelling: Tuple[str, ...] = ()

    @property
    def total_crashes(self) -> int:
        return sum(r.crashes for r in self.runs)

    @property
    def total_faults(self) -> int:
        return sum(r.faults_injected for r in self.runs)

    @property
    def certified(self) -> int:
        return sum(1 for r in self.runs if r.ok)

    @property
    def first_error(self) -> Optional[str]:
        for run in self.runs:
            if run.error is not None:
                return run.error
        return None

    @property
    def sc_violations(self) -> List[ChaosRunRecord]:
        return [
            r
            for r in self.runs
            if r.error is None and (not r.sc_certified or r.forbidden_outcome)
        ]

    @property
    def all_certified(self) -> bool:
        return bool(self.runs) and all(r.ok for r in self.runs)


def _chaos_axes(workload: str, seed: int, quick: bool):
    """The litmus tests, staggers, synthetic apps and seeds of a chaos grid."""
    from repro.harness.runner import ALL_APPS
    from repro.replay.workload import LITMUS_STAGGERS, QUICK_LITMUS_STAGGERS
    from repro.verify.litmus import all_litmus_tests

    if workload not in ("litmus", "synthetic", "mix"):
        raise ValueError(f"unknown chaos workload {workload!r}")
    return (
        all_litmus_tests() if workload in ("litmus", "mix") else [],
        QUICK_LITMUS_STAGGERS if quick else LITMUS_STAGGERS,
        (ALL_APPS[:1] if quick else ALL_APPS[:3]) if workload != "litmus" else [],
        [seed] if quick else [seed, seed + 1],
    )


def chaos_campaign_spec(
    seed: int,
    faults: str,
    workload: str = "litmus",
    config_name: str = "BSCdypvt",
    rate: Optional[float] = None,
    no_retry: bool = False,
    instructions: int = 2000,
    quick: bool = False,
    crashes: Sequence[str] = (),
):
    """Map a ``chaos`` CLI invocation onto a durable campaign spec.

    This is the campaign-mode entry of the chaos harness (``chaos
    --campaign DIR``): the chaos workloads, staggers and seeds expressed
    as a :class:`~repro.campaign.spec.CampaignSpec`, so they run
    checkpointed, sharded and resumable through
    :func:`repro.campaign.runner.run_campaign`.  It is *not* the grid an
    in-memory :func:`run_chaos` sweeps, in three ways:

    * without ``quick``, the synthetic apps run at both seeds (chaos
      runs them at ``seed`` only);
    * cells follow the campaign order, workload → seed, not chaos's
      litmus test → seed → stagger;
    * each cell's injector is seeded from its cell seed and labeled with
      its cell key, not from the chaos seed and a per-run label.

    So a durable chaos campaign is reproducible cell-by-cell, and its
    outcomes differ from a ``chaos`` report's run by run.
    """
    from repro.campaign.spec import CampaignSpec, FaultVariant
    from repro.replay.workload import litmus_spec

    tests, staggers, apps, seeds = _chaos_axes(workload, seed, quick)
    FaultPlan.parse(faults, rate=rate)  # validate the spelling up front
    workloads = [
        litmus_spec(test.name, stagger) for test in tests for stagger in staggers
    ] + [{"kind": "app", "app": app} for app in apps]
    variant = FaultVariant(
        faults=faults,
        rate=rate,
        no_retry=no_retry,
        crashes=tuple(CrashPoint.parse(c).canonical() for c in crashes),
    )
    return CampaignSpec(
        name=f"chaos-{workload}-s{seed}",
        configs=(config_name,),
        workloads=tuple(workloads),
        seeds=tuple(seeds),
        faults=(variant,),
        instructions=instructions,
        max_events=CHAOS_MAX_EVENTS,
    ).validate()


def run_chaos(
    seed: int,
    faults: str,
    workload: str = "litmus",
    config_name: str = "BSCdypvt",
    rate: Optional[float] = None,
    no_retry: bool = False,
    instructions: int = 2000,
    quick: bool = False,
    crashes: Sequence[str] = (),
    jobs: int = 1,
) -> ChaosReport:
    """Run a chaos campaign and return its report.

    Args:
        seed: Campaign seed; all fault schedules and workloads derive
            from it, so reports are bit-identical across repeats.
        faults: Comma-separated fault list for :meth:`FaultPlan.parse`.
        workload: ``litmus``, ``synthetic``, or ``mix``.
        config_name: A named configuration (must be a BulkSC variant for
            the commit pipeline to be exercised).
        rate: Optional per-message fault rate override.
        no_retry: Disable the bounded-retry resilience so the first lost
            message raises :class:`~repro.errors.FaultInducedError`.
        instructions: Per-thread instruction budget for synthetic apps.
        quick: Trim the campaign for smoke tests (CI).
        crashes: Scripted arbiter crashes (``POINT:OCC[:TARGET]``
            spellings), applied to *every* run of the campaign.
        jobs: Worker processes for the campaign's independent runs
            (``0`` = one per CPU), fanned out by the campaign executor.
            Each run has its own injector forked from the campaign seed,
            so fan-out cannot change any run's schedule; the report is
            truncated at the first error in campaign order, making it
            bit-identical to a serial (stop-at-first-error) campaign.
    """
    from repro.campaign.queue import CampaignCell
    from repro.campaign.runner import RunnerOptions, execute_cells
    from repro.campaign.spec import FaultVariant
    from repro.replay.workload import litmus_spec

    tests, staggers, apps, seeds = _chaos_axes(workload, seed, quick)
    plan = FaultPlan.parse(faults, rate=rate)
    report = ChaosReport(
        seed=seed,
        workload=workload,
        config_name=config_name,
        plan_description=plan.describe(),
        retries_enabled=not no_retry,
        crashes_spelling=tuple(CrashPoint.parse(c).canonical() for c in crashes),
    )
    # (workload spec, config seed, injector label) in chaos order: litmus
    # test -> seed -> stagger, then the synthetic apps at the chaos seed.
    grid = [
        (
            litmus_spec(test.name, stagger),
            run_seed,
            f"litmus/{test.name}/s{run_seed}/g{gi}",
        )
        for test in tests
        for run_seed in seeds
        for gi, stagger in enumerate(staggers)
    ] + [({"kind": "app", "app": app}, seed, f"synthetic/{app}") for app in apps]
    fault = FaultVariant(faults, rate, no_retry, report.crashes_spelling)
    cells = [
        CampaignCell(
            index=index,
            config=config_name,
            workload=spec,
            seed=run_seed,
            fault=fault,
            instructions=instructions,
            max_events=CHAOS_MAX_EVENTS,
            injector=(seed, label),
        )
        for index, (spec, run_seed, label) in enumerate(grid)
    ]
    # Stop at the first error: serial campaigns never start later cells,
    # fanned-out ones are truncated at the same run.
    for cell, outcome in zip(cells, execute_cells(cells, RunnerOptions(jobs=jobs))):
        report.runs.append(ChaosRunRecord.from_outcome(cell, outcome))
        if outcome["error"] is not None:
            report.failure_trace = [
                FaultRecord(**record) for record in outcome.get("fault_trace", ())
            ]
            break
    return report

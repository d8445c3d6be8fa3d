"""Bounded model checking of the shipped contracts over real runs.

Qadeer-style bounded checking, but of the simulator itself: the checker
enumerates real runs of the commit path (arbiter, DirBDM expansion, bulk
disambiguation, epoch recovery) depth first over a small grid, records
each one through :func:`~repro.replay.recorder.record_run`, and
contract-checks every trace.  The grid is

    every litmus test × the four BulkSC configs
    × {no crash} ∪ {each crash point at occurrences 1..MAX_CRASH_OCCURRENCE}
    × every forced-denial schedule of at most DENIAL_BUDGET denials

where a schedule is the existing cell data — ``CampaignCell.denials``
and ``FaultVariant.crashes`` — so every run is an ordinary cell that
replays and minimizes like any other.

**Pruning.**  A schedule is extended by one more denial to a processor
that asked the arbiter, except to a processor that left a denial unused:
that processor was never granted often enough to meet one more, so the
run would repeat the one just explored.  A crash occurrence is
extended only when the previous occurrence fired; otherwise the run
would repeat the crash-free one.  Each rule is exact for the schedule
it skips, and with ``DENIAL_BUDGET = 2`` a skipped denial schedule has
no extensions of its own.  A skipped crash occurrence does: its
denial schedules are skipped with it, although the extra arbiter
traffic of a denial could make the crash fire, so the crash rule is a
bound on the search, not an equivalence.  Skipped extensions are
counted as *pruned*.

The checker then asserts three things:

1. **Legal runs are clean** — no contract clause and no composition
   obligation is violated, and every run finishes SC with no typed error;
2. **Non-vacuity** — every clause of every contract, and the
   composition obligation, activates on at least one run of the grid;
3. **Teeth** — each seeded mutation, a method patch of one real
   component applied only for the duration of its sweep, is caught by
   the contract that owns that component.

Event-order choices among events that share a cycle are not part of the
grid: the explored space is schedules, not event interleavings.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaign.spec import FaultVariant
from repro.contracts.checker import check_trace
from repro.contracts.composition import COMPOSITION_COMPONENT
from repro.contracts.dsl import Witness
from repro.contracts.library import ALL_CONTRACTS, COMPONENTS
from repro.core.bdm import BDM
from repro.core.commit import CommitEngine
from repro.core.distributed_arbiter import DistributedArbiter
from repro.errors import ReproError
from repro.faults.plan import FaultPoint
from repro.replay.recorder import CellRun, record_run, replay_cell
from repro.replay.workload import LITMUS_STAGGERS, litmus_spec, select_litmus_tests

#: The four BulkSC configurations each litmus test runs under.
CONFIGS: Tuple[str, ...] = ("BSCbase", "BSCdypvt", "BSCexact", "BSCstpvt")
#: The scripted-crash points (every injectable message leg).
CRASH_POINTS: Tuple[str, ...] = tuple(point.value for point in FaultPoint)
#: Crash occurrences tried at each point: 1 .. this.
MAX_CRASH_OCCURRENCE = 3
#: Forced denials per run, summed over processors.
DENIAL_BUDGET = 2

#: Seeded mutations and the component contract each must trip.
MUTATIONS: Dict[str, str] = {
    "double-serialize": "arbiter",
    "skip-squash": "bdm",
    "phantom-victim": "dirbdm",
    "dup-inv": "network",
    "dead-epoch-grant": "recovery",
}

_COMPOSITION_CLAUSE = "interface-replay"

#: A schedule: the crash ``(point, occurrence)`` or ``None``, and the
#: forced-denial pairs.
_Schedule = Tuple[Optional[Tuple[str, int]], Tuple[Tuple[int, int], ...]]


class ModelCheckError(ReproError):
    """The bounded search was asked for an unknown mutation."""


# ----------------------------------------------------------------------
# Seeded mutations: method patches of the real components
# ----------------------------------------------------------------------

def _serialize_twice(serialize: Callable) -> Callable:
    # The arbiter's grant instant publishes one commit twice.
    def patched(self, txn):
        serialize(self, txn)
        serialize(self, txn)
    return patched


def _report_no_conflicts(disambiguate: Callable) -> Callable:
    # The BDM reports no colliding chunk, so nothing is squashed.
    def patched(self, w_commit):
        return []
    return patched


def _forward_beyond_expansion(make_visible: Callable) -> Callable:
    # W reaches every other processor, not just the expansion lists.
    def patched(self, txn, invalidation_procs):
        others = set(range(self.config.num_processors)) - {txn.chunk.proc}
        make_visible(self, txn, others)
    return patched


def _deliver_twice(deliver: Callable) -> Callable:
    # Each W reaches the victim's BDM twice: duplicate suppression lost.
    def patched(self, txn, proc):
        deliver(self, txn, proc)
        txn.pending_invalidations.add(proc)
        deliver(self, txn, proc)
    return patched


def _accept_any_lease(lease_valid: Callable) -> Callable:
    # The epoch fence accepts a grant issued by a dead incarnation.
    def patched(self, ranges, lease):
        return True
    return patched


#: Mutation name -> (class, method, wrapper of the original method).
_PATCHES: Dict[str, Tuple[type, str, Callable[[Callable], Callable]]] = {
    "double-serialize": (CommitEngine, "_serialize", _serialize_twice),
    "skip-squash": (BDM, "disambiguate", _report_no_conflicts),
    "phantom-victim": (CommitEngine, "_make_visible", _forward_beyond_expansion),
    "dup-inv": (CommitEngine, "_deliver_invalidation", _deliver_twice),
    "dead-epoch-grant": (DistributedArbiter, "lease_valid", _accept_any_lease),
}


@contextmanager
def mutated(mutation: Optional[str]) -> Iterator[None]:
    """Apply one seeded mutation for the duration of the block.

    The original method is restored on exit, however the block ends.
    ``None`` applies nothing.
    """
    if mutation is None:
        yield
        return
    if mutation not in _PATCHES:
        raise ModelCheckError(
            f"unknown mutation {mutation!r} "
            f"(known: {', '.join(sorted(MUTATIONS))})"
        )
    owner, name, wrap = _PATCHES[mutation]
    original = owner.__dict__[name]
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


# ----------------------------------------------------------------------
# The depth-first search over real runs
# ----------------------------------------------------------------------

@dataclass
class ModelCheckReport:
    """Outcome of one sweep of the grid (legal or under one mutation)."""

    mutation: Optional[str]
    explored: int = 0
    pruned: int = 0
    activations: Dict[str, Dict[str, int]] = field(default_factory=dict)
    violations: Dict[str, int] = field(default_factory=dict)
    sample_witnesses: List[dict] = field(default_factory=list)
    #: Runs that raised a typed error, failed SC or hit a forbidden outcome.
    failures: List[str] = field(default_factory=list)

    @property
    def caught(self) -> bool:
        """Whether the mutation's owner contract reported a violation."""
        return self.mutation is not None and MUTATIONS[self.mutation] in self.violations

    @property
    def ok(self) -> bool:
        return not self.violations and not self.failures

    @property
    def vacuous_clauses(self) -> List[str]:
        clauses = [
            (contract.component, clause.name)
            for contract in ALL_CONTRACTS
            for clause in contract.clauses
        ]
        clauses.append((COMPOSITION_COMPONENT, _COMPOSITION_CLAUSE))
        return [
            f"{component}/{name}"
            for component, name in clauses
            if self.activations.get(component, {}).get(name, 0) == 0
        ]

    def legal_problems(self) -> List[str]:
        """Why this sweep, read as the legal one, fails the obligation."""
        problems = [
            f"contract {component} violated on a legal run ({count} witness(es))"
            for component, count in sorted(self.violations.items())
        ]
        problems.extend(f"legal run failed: {failure}" for failure in self.failures)
        problems.extend(
            f"vacuous clause: {name} never activated on any legal run"
            for name in self.vacuous_clauses
        )
        return problems

    def absorb(self, run: CellRun, name: str) -> None:
        """Contract-check one recorded run and fold in its verdicts."""
        self.explored += 1
        # A mutated run may break SC itself; the question there is which
        # component contract localizes the bug, so composition is skipped.
        components = COMPONENTS if self.mutation else None
        report = check_trace(run.trace, components=components)
        for verdict in report.verdicts:
            per_clause = self.activations.setdefault(verdict.component, {})
            for clause, count in verdict.activations.items():
                per_clause[clause] = per_clause.get(clause, 0) + count
        composition = report.composition
        if composition is not None and composition.evaluated:
            per_clause = self.activations.setdefault(COMPOSITION_COMPONENT, {})
            per_clause[_COMPOSITION_CLAUSE] = (
                per_clause.get(_COMPOSITION_CLAUSE, 0) + composition.ops
            )
        for witness in report.witnesses:
            self.violations[witness.component] = (
                self.violations.get(witness.component, 0) + 1
            )
            if len(self.sample_witnesses) < 5:
                self.sample_witnesses.append(_sample(witness, name))
        if self.mutation is None and run.failed:
            detail = run.error or run.sc_reason or run.status
            self.failures.append(f"{name}: {detail}")

    def payload(self) -> dict:
        return {
            "ok": self.ok,
            "explored": self.explored,
            "pruned": self.pruned,
            "activations": self.activations,
            "violations": self.violations,
            "vacuous_clauses": self.vacuous_clauses,
            "failures": self.failures,
            "sample_witnesses": self.sample_witnesses,
        }


def _sample(witness: Witness, run: str) -> dict:
    sample = {"run": run}
    sample.update(witness.payload())
    return sample


_ARBITER_RECORDS = ("arb.grant", "arb.deny", "arb.need_r")


def _forced_denials_used(run: CellRun) -> Dict[int, int]:
    used: Dict[int, int] = {}
    for record in run.trace.records:
        if record.ev == "arb.deny" and record.data.get("reason") == "forced denial":
            used[record.p] = used.get(record.p, 0) + 1
    return used


def _denial_extensions(
    denials: Tuple[Tuple[int, int], ...], run: CellRun
) -> Tuple[List[Tuple[Tuple[int, int], ...]], int]:
    """Every schedule with one more denial, each multiset reached once,
    and the number skipped because they would repeat ``run``.

    Only processors that asked the arbiter in ``run`` can use a denial.
    Pairs stay sorted by processor: a schedule grows by one more denial
    to its last processor or by a first denial to a later one.  The
    first is skipped when the last processor left a denial unused.
    """
    procs = sorted({r.p for r in run.trace.records if r.ev in _ARBITER_RECORDS})
    if not denials:
        return [((proc, 1),) for proc in procs], 0
    last_proc, last_n = denials[-1]
    extensions = [denials + ((proc, 1),) for proc in procs if proc > last_proc]
    if _forced_denials_used(run).get(last_proc, 0) < last_n:
        return extensions, 1
    return [denials[:-1] + ((last_proc, last_n + 1),)] + extensions, 0


def run_model(
    litmus: str = "all",
    crash_points: Sequence[str] = CRASH_POINTS,
    mutation: Optional[str] = None,
) -> ModelCheckReport:
    """Sweep the grid depth first, recording and contract-checking each run.

    ``litmus`` and ``crash_points`` select a slice of the grid.  Under a
    ``mutation`` the sweep stops at the first run its owner contract
    rejects.
    """
    report = ModelCheckReport(mutation=mutation)
    with mutated(mutation):
        for test in select_litmus_tests(litmus):
            spec = litmus_spec(test.name, LITMUS_STAGGERS[0])
            for config in CONFIGS:
                roots: List[_Schedule] = [(None, ())] + [
                    ((point, 1), ()) for point in crash_points
                ]
                stack = roots[::-1]
                while stack:
                    crash, denials = stack.pop()
                    crashes = (f"{crash[0]}:{crash[1]}:arbiter0",) if crash else ()
                    cell = replay_cell(
                        spec, config, fault=FaultVariant(crashes=crashes),
                        denials=denials,
                    )
                    run = record_run(cell)
                    report.absorb(run, cell.name)
                    if report.caught:
                        return report
                    stack.extend(_children(report, run, crash, denials)[::-1])
    return report


def _children(
    report: ModelCheckReport,
    run: CellRun,
    crash: Optional[Tuple[str, int]],
    denials: Tuple[Tuple[int, int], ...],
) -> List[_Schedule]:
    """The schedules that extend one explored run; counts the pruned ones."""
    children: List[_Schedule] = []
    if crash is not None and not denials and crash[1] < MAX_CRASH_OCCURRENCE:
        if run.injector.crashes_fired:
            children.append(((crash[0], crash[1] + 1), ()))
        else:
            report.pruned += 1
    if sum(n for __, n in denials) < DENIAL_BUDGET:
        extensions, skipped = _denial_extensions(denials, run)
        report.pruned += skipped
        children.extend((crash, extension) for extension in extensions)
    return children


# ----------------------------------------------------------------------
# The full obligation
# ----------------------------------------------------------------------

def verify_contracts() -> dict:
    """Legal runs clean and non-vacuous; each mutation caught by its owner.

    Returns a JSON-ready payload with ``ok``, the ``problems`` found, the
    legal sweep's counts and activations, and one entry per mutation.
    """
    legal = run_model()
    problems = legal.legal_problems()

    mutations: Dict[str, dict] = {}
    for name, target in MUTATIONS.items():
        sweep = run_model(mutation=name)
        mutations[name] = {
            "target": target,
            "caught": sweep.caught,
            "explored": sweep.explored,
            "violations": sweep.violations,
            "sample_witnesses": sweep.sample_witnesses,
        }
        if not sweep.caught:
            problems.append(
                f"mutation {name}: owner contract {target} reported no "
                f"violation in {sweep.explored} runs "
                f"(violations seen: {sorted(sweep.violations)})"
            )

    return {
        "ok": not problems,
        "grid": {
            "configs": list(CONFIGS),
            "crash_points": list(CRASH_POINTS),
            "max_crash_occurrence": MAX_CRASH_OCCURRENCE,
            "denial_budget": DENIAL_BUDGET,
        },
        "problems": problems,
        "legal": legal.payload(),
        "mutations": mutations,
    }


def render_modelcheck(payload: dict) -> str:
    """Human-readable summary of :func:`verify_contracts` output."""
    grid = payload["grid"]
    legal = payload["legal"]
    crashes = ", ".join(grid["crash_points"]) or "none"
    lines = [
        f"bounded model check over real runs: every litmus test x "
        f"{'/'.join(grid['configs'])}",
        f"  crashes at {crashes} (occurrences 1..{grid['max_crash_occurrence']}), "
        f"<= {grid['denial_budget']} forced denials per run",
        f"  legal  explored={legal['explored']} pruned={legal['pruned']} "
        f"failures={len(legal['failures'])} "
        f"violations={sum(legal['violations'].values())}",
        "  activations (legal runs):",
    ]
    for component, per_clause in sorted(legal["activations"].items()):
        detail = ", ".join(
            f"{name}={count}" for name, count in sorted(per_clause.items())
        )
        lines.append(f"    {component:<12} {detail}")
    lines.append("  mutations:")
    for name, info in sorted(payload["mutations"].items()):
        state = "caught" if info["caught"] else "MISSED"
        lines.append(
            f"    {name:<18} -> {info['target']:<9} {state} ({info['explored']} runs)"
        )
    lines.append(f"model check {'OK' if payload['ok'] else 'FAILED'}")
    for problem in payload["problems"]:
        lines.append(f"  problem: {problem}")
    return "\n".join(lines)

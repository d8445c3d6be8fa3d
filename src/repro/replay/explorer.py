"""Schedule exploration: hunt for final states outside the SC set.

The explorer drives each litmus test through many *dynamic* schedules —
seed sweeps, thread-stagger variation (random-walk through the
interleaving space), and **commit-order permutation**: a forced-denial
schedule (:attr:`~repro.campaign.queue.CampaignCell.denials`) turns the
first N otherwise-granted requests of a chosen processor into denials,
reordering chunk commits without touching protocol state (a denial is
a legal arbiter answer; the chunk simply retries later).  Every run is
a campaign cell run through :func:`~repro.replay.recorder.run_cell`, so
it records, replays and minimizes like any other cell.

Every observed final state — registers plus the final values of the
test's shared variables — is checked against the *static* SC outcome
set from :func:`repro.analysis.outcomes.enumerate_sc_outcomes` at
``chunk_size=1``.  The containment contract is one-directional and
strict: **dynamic ⊆ static**.  A dynamic state missing from the static
set means a consistency bug in the simulator (or an enumerator bug) —
either way a finding.  Each run's SC witness verdict and
forbidden-outcome verdict come from ``run_cell`` as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Set, Tuple

from repro.analysis.outcomes import enumerate_sc_outcomes
from repro.cpu.thread import ThreadProgram
from repro.errors import ProgramError
from repro.params import NAMED_CONFIGS
from repro.replay.recorder import replay_cell, run_cell
from repro.replay.workload import (
    LITMUS_STAGGERS,
    QUICK_LITMUS_STAGGERS,
    litmus_addresses,
    litmus_spec,
    select_litmus_tests,
)

_StateKey = Tuple[tuple, tuple]


@dataclass
class ExploreTestResult:
    """Exploration outcome for one litmus test."""

    name: str
    static_states: int = 0
    dynamic_states: int = 0
    runs: int = 0
    #: Dynamic final states absent from the static SC set (descriptions).
    new_states: List[str] = field(default_factory=list)
    #: Runs whose history failed the SC witness check.
    sc_failures: List[str] = field(default_factory=list)
    #: Runs that hit the test's SC-forbidden register outcome.
    forbidden_runs: List[str] = field(default_factory=list)
    #: Runs that raised a typed ReproError (budget blown, protocol bug).
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.new_states or self.sc_failures or self.forbidden_runs or self.errors
        )


@dataclass
class ExploreReport:
    """Results of a whole exploration sweep."""

    config_name: str
    seeds: Tuple[int, ...]
    max_denials: int
    results: List[ExploreTestResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    @property
    def total_runs(self) -> int:
        return sum(r.runs for r in self.results)

    def describe(self) -> str:
        lines = [
            f"schedule exploration under {self.config_name} "
            f"(seeds {list(self.seeds)}, ≤{self.max_denials} forced denials):"
        ]
        for r in self.results:
            status = "ok" if r.ok else "FINDINGS"
            lines.append(
                f"  {r.name:6s} {status:8s} runs={r.runs:<3d} "
                f"dynamic states {r.dynamic_states}/{r.static_states} static"
            )
            for s in r.new_states:
                lines.append(f"    NEW STATE (not SC-enumerable): {s}")
            for s in r.sc_failures:
                lines.append(f"    SC WITNESS FAILURE: {s}")
            for s in r.forbidden_runs:
                lines.append(f"    FORBIDDEN OUTCOME: {s}")
            for s in r.errors:
                lines.append(f"    ERROR: {s}")
        lines.append(
            f"RESULT: {'all dynamic states ⊆ static SC sets' if self.ok else 'FINDINGS — see above'}"
            f" ({self.total_runs} runs)"
        )
        return "\n".join(lines)


def _static_key(state) -> _StateKey:
    regs = state.registers
    mem = tuple(sorted((a, v) for a, v in state.memory if v != 0))
    return (regs, mem)


def _dynamic_key(registers, memory, num_threads: int, addrs: Iterable[int]) -> _StateKey:
    regs = tuple(
        tuple(sorted(registers.get(t, {}).items())) for t in range(num_threads)
    )
    mem = []
    for addr in sorted(set(addrs)):
        value = memory.peek(addr)
        if value != 0:
            mem.append((addr, value))
    return (regs, tuple(mem))


def _perturbation_schedules(
    num_threads: int, max_denials: int
) -> List[Tuple[Tuple[int, int], ...]]:
    return [
        ((proc, n),)
        for proc in range(num_threads)
        for n in range(1, max_denials + 1)
    ]


def explore(
    litmus: str = "all",
    config_name: str = "BSCdypvt",
    seeds: Sequence[int] = (0, 1),
    max_denials: int = 2,
    quick: bool = False,
) -> ExploreReport:
    """Sweep schedules for each litmus test and cross-validate statically.

    Every dynamic run is a :class:`~repro.campaign.queue.CampaignCell`
    (one per seed × stagger, one per forced-denial schedule) run through
    :func:`~repro.replay.recorder.run_cell`, which supplies the SC
    verdict, the forbidden-outcome verdict and any typed error.
    """
    if config_name not in NAMED_CONFIGS:
        raise ProgramError(f"unknown configuration {config_name!r}")
    tests = select_litmus_tests(litmus)
    seeds = tuple(seeds)
    staggers = QUICK_LITMUS_STAGGERS if quick else LITMUS_STAGGERS
    report = ExploreReport(
        config_name=config_name, seeds=seeds, max_denials=max_denials
    )
    for test in tests:
        result = ExploreTestResult(name=test.name)
        report.results.append(result)
        # Static side: enumerate the full SC outcome set over the *same*
        # addresses the dynamic harness allocates (allocation is a pure
        # function of the memory geometry, so every run agrees on them).
        base_config = NAMED_CONFIGS[config_name](seed=seeds[0])
        __, addrs = litmus_addresses(test, base_config)
        bare_programs = [
            ThreadProgram(ops, name=f"t{i}")
            for i, ops in enumerate(test.build(addrs))
        ]
        enumeration = enumerate_sc_outcomes(bare_programs, chunk_size=1)
        static_keys: Set[_StateKey] = {
            _static_key(s) for s in enumeration.final_states
        }
        static_addrs = {a for s in enumeration.final_states for a, __ in s.memory}
        static_addrs.update(addrs.values())
        result.static_states = len(static_keys)
        num_threads = len(bare_programs)
        # Dynamic side: seed × stagger sweep plus commit-order
        # perturbations at the arbiter.
        runs = [
            (
                f"s{seed}/g{'-'.join(map(str, stagger))}",
                replay_cell(litmus_spec(test.name, stagger), config_name, seed),
            )
            for seed in seeds
            for stagger in staggers
        ]
        for denials in _perturbation_schedules(
            num_threads, 1 if quick else max_denials
        ):
            label = ",".join(f"P{p}x{n}" for p, n in denials)
            runs.append((
                f"s{seeds[0]}/deny[{label}]",
                replay_cell(
                    litmus_spec(test.name, staggers[0]), config_name, seeds[0],
                    denials=denials,
                ),
            ))
        observed: Set[_StateKey] = set()
        for run_label, cell in runs:
            result.runs += 1
            run = run_cell(cell)
            if run.error is not None:
                result.errors.append(f"{run_label}: {run.error}")
                continue
            key = _dynamic_key(
                run.result.registers, run.result.memory, num_threads, static_addrs
            )
            if key not in observed:
                observed.add(key)
                if key not in static_keys:
                    result.new_states.append(f"{run_label}: {key}")
            if run.sc_ok is False:
                result.sc_failures.append(f"{run_label}: {run.sc_reason}")
            if run.forbidden:
                result.forbidden_runs.append(run_label)
        result.dynamic_states = len(observed)
    return report


def explore_payload(report: ExploreReport) -> dict:
    """JSON-serializable view of an exploration report."""
    return {
        "config": report.config_name,
        "seeds": list(report.seeds),
        "max_denials": report.max_denials,
        "ok": report.ok,
        "total_runs": report.total_runs,
        "tests": [
            {
                "name": r.name,
                "ok": r.ok,
                "runs": r.runs,
                "static_states": r.static_states,
                "dynamic_states": r.dynamic_states,
                "new_states": r.new_states,
                "sc_failures": r.sc_failures,
                "forbidden_runs": r.forbidden_runs,
                "errors": r.errors,
            }
            for r in report.results
        ],
    }

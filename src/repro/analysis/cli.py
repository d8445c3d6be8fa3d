"""The ``analyze`` CLI subcommand: static analysis without simulation.

Five passes, mirroring the ``chaos`` subcommand's conventions (JSON or
human reports; deterministic output; distinct exit codes):

* ``analyze program`` — static conflict graph + critical cycles +
  chunk-conflict prediction for a litmus test or bundled application;
* ``analyze races`` — lockset/happens-before race classification;
* ``analyze outcomes`` — exhaustive SC-outcome enumeration (litmus-scale);
* ``analyze detlint`` — determinism lint over Python sources;
* ``analyze contracts`` — per-component ordering contracts + composition
  obligation over recorded traces, plus the bounded protocol model
  checker (:mod:`repro.contracts`).

Exit codes: 0 clean, 1 findings (cycles / races / deadlocks / lint
hits), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProgramError, ReproError

if TYPE_CHECKING:
    from repro.cpu.thread import ThreadProgram

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: Spacing between litmus variables: one address per cache line's worth
#: of words, matching the dynamic harness's distinct-line placement.
_LITMUS_STRIDE = 0x40


def _litmus_programs(test) -> List[ThreadProgram]:
    """Instantiate a litmus test's threads at fixed, distinct addresses."""
    from repro.cpu.thread import ThreadProgram

    addrs = {
        var: (i + 1) * _LITMUS_STRIDE for i, var in enumerate(test.variables)
    }
    return [
        ThreadProgram(ops, name=f"t{i}")
        for i, ops in enumerate(test.build(addrs))
    ]


def _resolve_programs(
    args: argparse.Namespace,
) -> List[Tuple[str, List[ThreadProgram], Optional[object]]]:
    """Target selection shared by program/races/outcomes.

    Returns ``(name, programs, litmus_test_or_None)`` triples.
    """
    from repro.replay.workload import select_litmus_tests

    if args.app is not None:
        from repro.harness.runner import ALL_APPS, build_app_workload
        from repro.params import NAMED_CONFIGS

        if args.app not in ALL_APPS:
            raise ProgramError(f"unknown application {args.app!r}; try `list`")
        config = NAMED_CONFIGS[args.config](seed=args.seed)
        workload = build_app_workload(
            args.app, config, args.instructions, args.seed
        )
        return [(args.app, list(workload.programs), None)]
    return [
        (t.name, _litmus_programs(t), t) for t in select_litmus_tests(args.litmus)
    ]


def _emit(payloads: List[Dict[str, object]], texts: List[str], as_json: bool) -> None:
    if as_json:
        body = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        print("\n\n".join(texts))


def _cmd_program(args: argparse.Namespace) -> int:
    from repro.analysis.conflict_graph import build_conflict_report, predict_chunk_conflicts
    from repro.analysis.report import conflict_report_payload, render_conflict_report

    targets = _resolve_programs(args)
    payloads, texts = [], []
    findings = 0
    for name, programs, __ in targets:
        report = build_conflict_report(programs)
        chunk_conflicts: Sequence = ()
        if args.chunk_size:
            chunk_conflicts = predict_chunk_conflicts(programs, args.chunk_size)
        findings += len(report.cycles)
        payloads.append(
            conflict_report_payload(
                name, report, chunk_conflicts, args.chunk_size
            )
        )
        texts.append(
            render_conflict_report(
                name, report, chunk_conflicts, args.chunk_size
            )
        )
    _emit(payloads, texts, args.json)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def _cmd_races(args: argparse.Namespace) -> int:
    from repro.analysis.races import detect_races
    from repro.analysis.report import race_report_payload, render_race_report

    targets = _resolve_programs(args)
    payloads, texts = [], []
    races = 0
    for name, programs, __ in targets:
        report = detect_races(programs)
        races += len(report.races)
        payloads.append(race_report_payload(name, report))
        texts.append(render_race_report(name, report))
    _emit(payloads, texts, args.json)
    return EXIT_FINDINGS if races else EXIT_CLEAN


def _cmd_outcomes(args: argparse.Namespace) -> int:
    from repro.analysis.outcomes import enumerate_sc_outcomes
    from repro.analysis.report import outcome_payload, render_outcomes

    targets = _resolve_programs(args)
    payloads, texts = [], []
    findings = 0
    for name, programs, test in targets:
        result = enumerate_sc_outcomes(
            programs,
            chunk_size=max(1, args.chunk_size),
            max_states=args.max_states,
        )
        findings += len(result.deadlocks)
        payload = outcome_payload(name, result)
        text = render_outcomes(name, result)
        if test is not None:
            # The enumerated set must exclude the test's forbidden outcome;
            # an SC-forbidden state in the SC-allowed set is a finding.
            bad = [
                s for s in result.final_states if test.forbidden(s.register_map())
            ]
            payload["forbidden_states"] = [s.describe() for s in bad]
            if bad:
                findings += len(bad)
                text += (
                    f"\n  FORBIDDEN outcome enumerated as SC-allowed: {len(bad)}"
                )
            else:
                text += "\n  forbidden outcome correctly excluded"
        payloads.append(payload)
        texts.append(text)
    _emit(payloads, texts, args.json)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def _cmd_detlint(args: argparse.Namespace) -> int:
    from repro.analysis.detlint import lint_paths
    from repro.analysis.report import detlint_payload, render_detlint

    findings, files_checked = lint_paths(args.paths)
    if files_checked == 0:
        print(f"detlint: no python files under {args.paths}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(detlint_payload(findings, files_checked),
                         indent=2, sort_keys=True))
    else:
        print(render_detlint(findings, files_checked))
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def _cmd_contracts(args: argparse.Namespace) -> int:
    """Check contracts over each trace and/or run the model checker."""
    from repro.contracts.checker import (
        ContractError,
        check_trace,
        render_report,
        select_components,
    )
    from repro.replay.schema import read_trace

    components = select_components(args.component)
    if not args.traces and not args.modelcheck:
        raise ContractError(
            "nothing to do: give at least one TRACE or --modelcheck"
        )
    payloads: List[Dict[str, object]] = []
    texts: List[str] = []
    findings = 0

    for path in args.traces:
        try:
            trace = read_trace(path)
        except OSError as exc:
            raise ContractError(f"cannot read trace {path!r}: {exc}")
        report = check_trace(trace, components=components)
        if not report.ok:
            findings += 1
        payload: Dict[str, object] = {"trace": path}
        payload.update(report.payload())
        payloads.append(payload)
        texts.append(render_report(report, name=path))

    if args.modelcheck:
        from repro.contracts.modelcheck import render_modelcheck, verify_contracts

        result = verify_contracts()
        if not result["ok"]:
            findings += 1
        payloads.append({"modelcheck": result})
        texts.append(render_modelcheck(result))

    _emit(payloads, texts, args.json)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def add_analyze_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "analyze",
        help="static analysis: conflicts, races, SC outcomes, determinism lint",
    )
    passes = parser.add_subparsers(dest="analysis", required=True)

    def add_target_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--litmus", default="all",
            help="litmus test name or `all` (default all)",
        )
        p.add_argument("--app", default=None, help="analyze a bundled app instead")
        p.add_argument("--config", default="BSCdypvt",
                       help="configuration for --app workload construction")
        p.add_argument("--instructions", type=int, default=2000,
                       help="instructions per thread for --app (default 2000)")
        p.add_argument("--seed", type=int, default=0, help="workload seed")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p_prog = passes.add_parser(
        "program", help="conflict graph, critical cycles, chunk prediction"
    )
    add_target_args(p_prog)
    p_prog.add_argument(
        "--chunk-size", type=int, default=0,
        help="also predict chunk-pair conflicts at this chunk size",
    )
    p_prog.set_defaults(analyze_func=_cmd_program)

    p_races = passes.add_parser(
        "races", help="lockset + happens-before race classification"
    )
    add_target_args(p_races)
    p_races.set_defaults(analyze_func=_cmd_races)

    p_out = passes.add_parser(
        "outcomes", help="exhaustively enumerate SC-allowed final states"
    )
    add_target_args(p_out)
    p_out.add_argument(
        "--chunk-size", type=int, default=1,
        help="atomicity granularity in instructions (default 1 = full SC)",
    )
    p_out.add_argument(
        "--max-states", type=int, default=500_000,
        help="state exploration budget (default 500000)",
    )
    p_out.set_defaults(analyze_func=_cmd_outcomes)

    p_lint = passes.add_parser(
        "detlint", help="determinism lint over python sources"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories (default src/repro)",
    )
    p_lint.add_argument("--json", action="store_true", help="emit JSON")
    p_lint.set_defaults(analyze_func=_cmd_detlint)

    p_contracts = passes.add_parser(
        "contracts",
        help="per-component ordering contracts + composition over traces",
    )
    p_contracts.add_argument(
        "traces", nargs="*",
        help="recorded trace files (.jsonl) to contract-check",
    )
    p_contracts.add_argument(
        "--component", action="append", metavar="NAME",
        help="check only this component (repeatable; default: every "
             "component + composition; an unknown NAME lists the known ones)",
    )
    p_contracts.add_argument(
        "--modelcheck", action="store_true",
        help="also run the bounded model checker over real runs "
             "(non-vacuity + seeded mutations)",
    )
    p_contracts.add_argument("--json", action="store_true", help="emit JSON")
    p_contracts.set_defaults(analyze_func=_cmd_contracts)

    parser.set_defaults(func=cmd_analyze)


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.outcomes import EnumerationBudgetError

    try:
        return args.analyze_func(args)
    except EnumerationBudgetError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ProgramError, ReproError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return EXIT_USAGE

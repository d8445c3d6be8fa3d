"""The ``replay`` CLI subcommand: record, run, explore, minimize.

Follows the ``analyze``/``chaos`` conventions — JSON or human reports,
deterministic output, distinct exit codes:

* ``replay record`` — run workloads with the recorder attached and save
  versioned JSONL traces;
* ``replay run`` — re-drive one or more traces and assert
  divergence-free execution (``--check`` surfaces the SC verdict);
* ``replay explore`` — schedule sweeps cross-validated against the
  static SC enumeration;
* ``replay minimize`` — delta-debug a failing trace to a minimal,
  rerunnable repro.

Exit codes: 0 clean, 1 findings (failing run recorded, divergence, new
state, unreproducible failure), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

from repro.errors import ProgramError, ReproError
from repro.replay.schema import TraceValidationError, read_trace, write_trace

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _parse_stagger(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ProgramError(f"bad --stagger {text!r}; expected e.g. '1,60'")
    if not values:
        raise ProgramError("--stagger needs at least one integer")
    return values


def _record_targets(args: argparse.Namespace) -> List[dict]:
    from repro.replay.workload import app_spec, litmus_spec, select_litmus_tests

    if args.app is not None:
        return [app_spec(args.app, args.instructions, args.seed)]
    stagger = _parse_stagger(args.stagger)
    return [
        litmus_spec(t.name, stagger)
        for t in select_litmus_tests(args.litmus or "all")
    ]


def _trace_path(out: str, spec: dict, multiple: bool) -> str:
    from repro.replay.workload import workload_name

    if not multiple and out.endswith(".jsonl"):
        parent = os.path.dirname(out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return out
    os.makedirs(out, exist_ok=True)
    name = workload_name(spec).replace(":", "-").replace("/", "_")
    return os.path.join(out, f"{name}.jsonl")


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.campaign.spec import FaultVariant
    from repro.faults.plan import CrashPoint
    from repro.replay.recorder import record_run, replay_cell
    from repro.replay.workload import workload_name

    specs = _record_targets(args)
    fault = FaultVariant(
        faults=args.faults or "",
        rate=args.rate,
        no_retry=args.no_retry,
        crashes=tuple(CrashPoint.parse(c).canonical() for c in args.crash or ()),
    )
    payloads = []
    failures = 0
    for spec in specs:
        run = record_run(replay_cell(spec, args.config, args.seed, fault))
        path = _trace_path(args.out, spec, multiple=len(specs) > 1)
        write_trace(run.trace, path)
        failures += run.failed
        payloads.append(
            {
                "workload": workload_name(spec),
                "trace": path,
                "records": len(run.trace.records),
                "cycles": run.trace.footer.get("cycles"),
                "faults_injected": run.trace.footer.get("total_faults"),
                "sc_ok": run.sc_ok,
                "forbidden": run.forbidden,
                "error": run.error,
            }
        )
    if args.json:
        print(json.dumps(payloads, indent=2, sort_keys=True))
    else:
        for p in payloads:
            status = "FAIL" if (
                p["error"] or p["sc_ok"] is False or p["forbidden"]
            ) else "ok"
            print(
                f"{status:4s} {p['workload']:24s} -> {p['trace']} "
                f"({p['records']} records, {p['faults_injected']} faults)"
            )
            if p["error"]:
                print(f"     {p['error']}")
    return EXIT_FINDINGS if failures else EXIT_CLEAN


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.replay.replayer import replay_trace

    payloads = []
    findings = 0
    for path in args.traces:
        trace = read_trace(path)
        result = replay_trace(trace)
        diverged = not result.ok
        sc_bad = args.check and result.sc_ok is False
        findings += diverged or sc_bad
        payloads.append(
            {
                "trace": path,
                "kind": trace.kind,
                "ok": result.ok,
                "records": len(trace.records),
                "sc_ok": result.sc_ok,
                "error_reproduced": trace.footer.get("error"),
                "divergence": (
                    result.divergence.describe() if result.divergence else None
                ),
                "footer_mismatches": result.footer_mismatches,
            }
        )
        if not args.json:
            print(f"{path}: {result.describe()}")
            if args.check:
                print(
                    f"  sc check on replayed history: "
                    f"{'ok' if result.sc_ok else result.sc_ok}"
                )
    if args.json:
        print(json.dumps(payloads, indent=2, sort_keys=True))
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.replay.explorer import explore, explore_payload

    seeds = tuple(range(args.seed, args.seed + max(1, args.seeds)))
    report = explore(
        litmus=args.litmus,
        config_name=args.config,
        seeds=seeds,
        max_denials=args.max_denials,
        quick=args.quick,
    )
    if args.json:
        print(json.dumps(explore_payload(report), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return EXIT_CLEAN if report.ok else EXIT_FINDINGS


def _cmd_minimize(args: argparse.Namespace) -> int:
    from repro.replay.minimizer import MinimizeError, minimize_trace

    trace = read_trace(args.trace)
    out = args.out or (
        args.trace[: -len(".jsonl")] + ".min.jsonl"
        if args.trace.endswith(".jsonl")
        else args.trace + ".min.jsonl"
    )
    try:
        result = minimize_trace(trace, budget=args.budget)
    except MinimizeError as exc:
        print(f"minimize: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    write_trace(result.trace, out)
    payload = {
        "trace": args.trace,
        "minimized": out,
        "original_faults": result.original_faults,
        "minimized_faults": result.minimized_faults,
        "dropped_threads": result.dropped_threads,
        "runs_tested": result.runs_tested,
        "strictly_smaller": result.strictly_smaller,
        "error": result.error,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.describe())
        print(f"minimized repro written to {out}")
    return EXIT_CLEAN


def add_replay_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "replay",
        help="deterministic record/replay, schedule exploration, minimization",
    )
    actions = parser.add_subparsers(dest="replay_action", required=True)

    p_rec = actions.add_parser(
        "record", help="run workloads with the recorder and save traces"
    )
    p_rec.add_argument(
        "--litmus", default="all", help="litmus test name or `all` (default all)"
    )
    p_rec.add_argument("--app", default=None, help="record a bundled app instead")
    p_rec.add_argument("--config", default="BSCdypvt", help="configuration name")
    p_rec.add_argument("--seed", type=int, default=0, help="run seed")
    p_rec.add_argument(
        "--stagger", default="1,1",
        help="comma-separated per-thread compute preamble (default 1,1)",
    )
    p_rec.add_argument(
        "--faults", default=None,
        help="comma-separated fault list to inject while recording",
    )
    p_rec.add_argument(
        "--rate", type=float, default=None, help="fault rate override"
    )
    p_rec.add_argument(
        "--no-retry", action="store_true",
        help="disable bounded retries (first lost message fails the run)",
    )
    p_rec.add_argument(
        "--crash",
        action="append",
        default=None,
        metavar="POINT:OCC[:TARGET]",
        help="scripted arbiter crash while recording, e.g. grant:1:arbiter0 "
        "(repeatable; recorded into the trace header for replay)",
    )
    p_rec.add_argument(
        "--instructions", type=int, default=2000,
        help="instructions per thread for --app (default 2000)",
    )
    p_rec.add_argument(
        "-o", "--out", default="traces",
        help="output directory (or .jsonl file for a single workload)",
    )
    p_rec.add_argument("--json", action="store_true", help="emit JSON")
    p_rec.set_defaults(replay_func=_cmd_record)

    p_run = actions.add_parser(
        "run", help="replay traces and assert divergence-free execution"
    )
    p_run.add_argument("traces", nargs="+", help="trace files to replay")
    p_run.add_argument(
        "--check", action="store_true",
        help="also fail if the replayed history flunks the SC checker",
    )
    p_run.add_argument("--json", action="store_true", help="emit JSON")
    p_run.set_defaults(replay_func=_cmd_run)

    p_exp = actions.add_parser(
        "explore",
        help="schedule sweeps cross-validated against static SC enumeration",
    )
    p_exp.add_argument("--litmus", default="all")
    p_exp.add_argument("--config", default="BSCdypvt")
    p_exp.add_argument("--seed", type=int, default=0, help="first seed")
    p_exp.add_argument(
        "--seeds", type=int, default=2, help="number of seeds to sweep (default 2)"
    )
    p_exp.add_argument(
        "--max-denials", type=int, default=2,
        help="max forced arbiter denials per processor (default 2)",
    )
    p_exp.add_argument(
        "--quick", action="store_true", help="trimmed sweep for CI smoke runs"
    )
    p_exp.add_argument("--json", action="store_true", help="emit JSON")
    p_exp.set_defaults(replay_func=_cmd_explore)

    p_min = actions.add_parser(
        "minimize", help="delta-debug a failing trace to a minimal repro"
    )
    p_min.add_argument("trace", help="failing trace file")
    p_min.add_argument(
        "-o", "--out", default=None,
        help="output path (default: <trace>.min.jsonl)",
    )
    p_min.add_argument(
        "--budget", type=int, default=200,
        help="max candidate runs to test (default 200)",
    )
    p_min.add_argument("--json", action="store_true", help="emit JSON")
    p_min.set_defaults(replay_func=_cmd_minimize)

    parser.set_defaults(func=cmd_replay)


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        return args.replay_func(args)
    except TraceValidationError as exc:
        print(f"replay: invalid trace: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ProgramError, ReproError, OSError) as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return EXIT_USAGE

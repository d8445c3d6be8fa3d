"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run`` — simulate one application under one configuration and print a
  report (optionally JSON).
* ``compare`` — run one application under several configurations and
  print speedups normalized to the first.
* ``litmus`` — run the litmus suite under a configuration; exits 1 if
  a model that guarantees SC shows a forbidden outcome, or if any run
  raises a typed error.
* ``chaos`` — fault-injection campaigns against the commit pipeline.
* ``analyze`` — static analysis: conflict graphs, races, SC-outcome
  enumeration, and the determinism lint (no simulation).
* ``replay`` — deterministic record/replay of runs, schedule
  exploration, and failure minimization.
* ``campaign`` — durable, checkpointed, resumable certification
  campaigns over an append-only store (``run|status|resume|report``).
* ``serve`` — run one component of the crash-tolerant multi-process
  service (node, arbiter, fault proxy, or a whole cluster).
* ``service`` — benchmark (``bench``) and certify (``certify``) live
  service runs: socket transport, epoch-fenced arbiter failover, SC
  certification of the merged history.
* ``experiments`` — regenerate one of the paper's tables/figures.
* ``profile`` — run the simulator core under cProfile and print the
  hottest functions.
* ``list`` — show the available applications and configurations.

``chaos`` and ``experiments`` accept ``--jobs N`` to fan their
independent simulation cells across worker processes; results are
bit-identical to a serial run (see :mod:`repro.harness.parallel`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.harness.experiments import figure9, figure10, figure11, table3, table4
from repro.harness.metrics import speedup_over
from repro.harness.runner import ALL_APPS, SweepRunner, build_app_workload
from repro.params import NAMED_CONFIGS, ConsistencyModelKind
from repro.system import run_workload
from repro.tools.report import summarize_run


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--instructions",
        type=int,
        default=10_000,
        help="dynamic instructions per thread (default 10000)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")


def _cmd_list(args: argparse.Namespace) -> int:
    print("applications:")
    for app in ALL_APPS:
        print(f"  {app}")
    print("configurations:")
    for name in NAMED_CONFIGS:
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.config not in NAMED_CONFIGS:
        print(f"unknown configuration {args.config!r}; try `list`", file=sys.stderr)
        return 2
    if args.app not in ALL_APPS:
        print(f"unknown application {args.app!r}; try `list`", file=sys.stderr)
        return 2
    config = NAMED_CONFIGS[args.config](seed=args.seed)
    workload = build_app_workload(args.app, config, args.instructions, args.seed)
    result = run_workload(
        config, workload.programs, workload.address_space, record_history=False
    )
    if args.json:
        payload = {
            "app": args.app,
            "config": args.config,
            "cycles": result.cycles,
            "instructions": result.total_instructions,
            "traffic_bytes": result.traffic_bytes,
            "stats": {
                k: v
                for k, v in result.stats.items()
                if not k.startswith("proc") or args.verbose
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(summarize_run(result))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    configs = args.configs or ["RC", "SC", "BSCdypvt"]
    for name in configs:
        if name not in NAMED_CONFIGS:
            print(f"unknown configuration {name!r}; try `list`", file=sys.stderr)
            return 2
    runner = SweepRunner(args.instructions, args.seed)
    baseline = runner.result(configs[0], args.app)
    print(f"{args.app} ({args.instructions} instructions/thread), "
          f"normalized to {configs[0]}:")
    for name in configs:
        result = runner.result(name, args.app)
        print(
            f"  {name:10s} {result.cycles:12.0f} cycles   "
            f"speedup {speedup_over(baseline, result):.3f}"
        )
    return 0


def _cmd_litmus(args: argparse.Namespace) -> int:
    from repro.replay.recorder import replay_cell, run_cell
    from repro.replay.workload import LITMUS_STAGGERS, litmus_spec, select_litmus_tests

    config_factory = NAMED_CONFIGS.get(args.config)
    if config_factory is None:
        print(f"unknown configuration {args.config!r}", file=sys.stderr)
        return 2
    # RC and TSO may legally show SC-forbidden outcomes; every other
    # model guarantees SC, so any forbidden outcome or witness failure
    # under it is a simulator bug.  A typed error is a failure under all.
    relaxed = config_factory().model in (
        ConsistencyModelKind.RC,
        ConsistencyModelKind.TSO,
    )
    print(f"litmus under {args.config}:")
    exit_code = 0
    for test in select_litmus_tests():
        forbidden = failures = runs = 0
        errors = []
        for seed in range(args.seed, args.seed + 3):
            for stagger in LITMUS_STAGGERS:
                runs += 1
                spec = litmus_spec(test.name, stagger)
                run = run_cell(replay_cell(spec, args.config, seed))
                if run.error is not None:
                    errors.append(f"s{seed}/g{'-'.join(map(str, stagger))}: {run.error}")
                forbidden += bool(run.forbidden)
                failures += run.sc_ok is False
        print(
            f"  {test.name:6s} forbidden {forbidden:2d}/{runs}   "
            f"witness failures {failures:2d}/{runs}"
        )
        for error in errors:
            print(f"    ERROR {error}")
        if errors or ((forbidden or failures) and not relaxed):
            exit_code = 1
    return exit_code


def _chaos_exit_code(report) -> int:
    """Map a chaos report to the CLI's exit-code contract.

    0 = all runs certified; 1 = SC violation or forbidden outcome;
    3 = diagnosable typed failure; 4 = livelock; 5 = crash-unrecovered
    (an arbiter never returned to service after an injected crash).
    Documented in docs/api.md — CI matrix jobs branch on these.
    """
    error = report.first_error
    if error is not None:
        if error.startswith("LivelockError"):
            return 4
        if error.startswith("RecoveryError"):
            return 5
        return 3  # failed diagnosably with a typed ReproError
    if not report.all_certified:
        return 1  # SC violation or forbidden outcome — simulator bug
    return 0


def _cmd_chaos_campaign(args: argparse.Namespace) -> int:
    """``chaos --campaign DIR``: run the chaos grid durably.

    Creates (or resumes — same spec required) a campaign store at DIR
    and executes the chaos cell grid checkpointed and resumable.  The
    exit code follows the campaign report contract, which matches the
    chaos contract for the shared codes (1/3/4/5).
    """
    from repro.campaign.report import spec_digest
    from repro.campaign.runner import RunnerOptions, run_campaign
    from repro.campaign.report import render_report, report_exit_code
    from repro.campaign.store import CampaignStore
    from repro.errors import CampaignError
    from repro.faults.chaos import chaos_campaign_spec

    try:
        spec = chaos_campaign_spec(
            seed=args.seed,
            faults=args.faults,
            workload=args.workload,
            config_name=args.config,
            rate=args.rate,
            no_retry=args.no_retry,
            instructions=args.instructions,
            quick=args.quick,
            crashes=args.crash or (),
        )
        import os

        if os.path.exists(os.path.join(args.campaign, "campaign.json")):
            store = CampaignStore.open(args.campaign)
            if spec_digest(store.spec) != spec_digest(spec):
                print(
                    f"chaos: campaign store {args.campaign!r} holds a "
                    "different spec; pick a fresh --campaign directory",
                    file=sys.stderr,
                )
                return 2
        else:
            store = CampaignStore.create(args.campaign, spec)
        payload = run_campaign(
            store,
            RunnerOptions(jobs=args.jobs),
            progress=lambda m: print(m, file=sys.stderr, flush=True),
        )
    except (CampaignError, ValueError) as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_report(payload))
    return report_exit_code(payload)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.faults.chaos import run_chaos
    from repro.tools.fault_trace import chaos_report_payload, render_chaos_report

    if args.config not in NAMED_CONFIGS:
        print(f"unknown configuration {args.config!r}; try `list`", file=sys.stderr)
        return 2
    if args.campaign:
        return _cmd_chaos_campaign(args)
    try:
        report = run_chaos(
            seed=args.seed,
            faults=args.faults,
            workload=args.workload,
            config_name=args.config,
            rate=args.rate,
            no_retry=args.no_retry,
            instructions=args.instructions,
            quick=args.quick,
            crashes=args.crash or (),
            jobs=args.jobs,
        )
    except (ConfigError, ValueError) as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(chaos_report_payload(report), indent=2, sort_keys=True))
    else:
        print(render_chaos_report(report))
    if args.save_trace:
        from repro.replay.recorder import save_chaos_failure

        saved = save_chaos_failure(report, args.save_trace)
        if saved is not None:
            print(f"replayable failure trace written to {saved}", file=sys.stderr)
            # Localize the failure: which component's ordering contract
            # broke, with witness event ids into the saved trace.
            from repro.contracts.checker import check_trace, localized_summary
            from repro.replay.schema import read_trace

            contract_report = check_trace(read_trace(saved))
            print(localized_summary(contract_report), file=sys.stderr)
        else:
            print(
                "no failing run to save (campaign fully certified)",
                file=sys.stderr,
            )
    return _chaos_exit_code(report)


def _cmd_experiments(args: argparse.Namespace) -> int:
    runner = SweepRunner(args.instructions, args.seed, jobs=args.jobs)
    apps = args.apps or list(ALL_APPS)
    if args.name == "figure9":
        __, report = figure9(runner, apps=apps)
    elif args.name == "figure10":
        __, report = figure10(
            instructions=args.instructions, seed=args.seed, apps=apps, jobs=args.jobs
        )
    elif args.name == "figure11":
        __, report = figure11(
            instructions=args.instructions, seed=args.seed, apps=apps, jobs=args.jobs
        )
    elif args.name == "table3":
        __, report = table3(runner, apps=apps)
    elif args.name == "table4":
        __, report = table4(runner, apps=apps)
    else:
        print(f"unknown experiment {args.name!r}", file=sys.stderr)
        return 2
    print(report)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.harness.perf import profile_run

    try:
        print(
            profile_run(
                target=args.target,
                config_name=args.config,
                instructions=args.instructions,
                seed=args.seed,
                top=args.top,
                sort=args.sort,
                as_json=args.json,
            )
        )
    except KeyError as exc:
        print(f"profile: {exc}", file=sys.stderr)
        return 2
    return 0


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent simulation cells "
        "(1 = serial, 0 = one per CPU); results are bit-identical "
        "to a serial run",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BulkSC reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list applications and configurations")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="simulate one app under one configuration")
    p_run.add_argument("app", help="application name (see `list`)")
    p_run.add_argument("--config", default="BSCdypvt", help="configuration name")
    p_run.add_argument("--json", action="store_true", help="emit JSON")
    p_run.add_argument("--verbose", action="store_true", help="include per-proc stats")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare configurations on one app")
    p_cmp.add_argument("app")
    p_cmp.add_argument("configs", nargs="*", help="configurations (default RC SC BSCdypvt)")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_lit = sub.add_parser("litmus", help="run the litmus suite")
    p_lit.add_argument("--config", default="BSCdypvt")
    p_lit.add_argument("--seed", type=int, default=0)
    p_lit.set_defaults(func=_cmd_litmus)

    p_chaos = sub.add_parser(
        "chaos",
        help="run fault-injection campaigns against the commit pipeline",
    )
    p_chaos.add_argument(
        "--faults",
        default="drop,delay,dup",
        help="comma-separated fault list (drop, delay, dup, reorder, "
        "storm, squash, kill-acks, arbiter-crash)",
    )
    p_chaos.add_argument(
        "--crash",
        action="append",
        default=None,
        metavar="POINT:OCC[:TARGET]",
        help="scripted arbiter crash, e.g. grant:1:arbiter0 "
        "(repeatable; applied to every run of the campaign)",
    )
    p_chaos.add_argument(
        "--workload",
        default="litmus",
        choices=["litmus", "synthetic", "mix"],
        help="workload family to chaos-test (default litmus)",
    )
    p_chaos.add_argument("--config", default="BSCdypvt", help="configuration name")
    p_chaos.add_argument(
        "--rate", type=float, default=None, help="override per-message fault rate"
    )
    p_chaos.add_argument(
        "--no-retry",
        action="store_true",
        help="disable bounded retries: the first lost message fails the run",
    )
    p_chaos.add_argument(
        "--quick", action="store_true", help="trimmed campaign for CI smoke runs"
    )
    p_chaos.add_argument("--json", action="store_true", help="emit JSON")
    p_chaos.add_argument(
        "--instructions",
        type=int,
        default=2000,
        help="instructions per thread for synthetic workloads (default 2000)",
    )
    p_chaos.add_argument("--seed", type=int, default=0, help="campaign seed")
    p_chaos.add_argument(
        "--save-trace",
        default=None,
        metavar="PATH",
        help="re-record the first failing run as a replayable trace; "
        "a PATH ending in .jsonl is a stand-alone file, anything else "
        "is treated as a campaign store directory (trace lands under "
        "PATH/traces/ and is logged in PATH/log.jsonl)",
    )
    p_chaos.add_argument(
        "--campaign",
        default=None,
        metavar="DIR",
        help="run the chaos grid as a durable campaign stored at DIR "
        "(checkpointed, kill -9-safe, resumable via `campaign resume`)",
    )
    _add_jobs(p_chaos)
    p_chaos.set_defaults(func=_cmd_chaos)

    from repro.analysis.cli import add_analyze_parser

    add_analyze_parser(sub)

    from repro.replay.cli import add_replay_parser

    add_replay_parser(sub)

    from repro.campaign.cli import add_campaign_parser

    add_campaign_parser(sub)

    from repro.service.cli import add_serve_parser, add_service_parser

    add_serve_parser(sub)
    add_service_parser(sub)

    p_exp = sub.add_parser("experiments", help="regenerate a paper artifact")
    p_exp.add_argument(
        "name",
        choices=["figure9", "figure10", "figure11", "table3", "table4"],
    )
    p_exp.add_argument("--apps", nargs="*", help="app subset (default: all)")
    _add_common(p_exp)
    _add_jobs(p_exp)
    p_exp.set_defaults(func=_cmd_experiments)

    p_prof = sub.add_parser(
        "profile", help="profile the simulator core under cProfile"
    )
    p_prof.add_argument(
        "--target",
        default="litmus",
        choices=["litmus", "synthetic"],
        help="workload to profile (default litmus)",
    )
    p_prof.add_argument("--config", default="BSCdypvt", help="configuration name")
    p_prof.add_argument(
        "--instructions",
        type=int,
        default=4000,
        help="instructions per thread for the synthetic target",
    )
    p_prof.add_argument("--seed", type=int, default=0, help="workload seed")
    p_prof.add_argument(
        "--top", type=int, default=25, help="number of hot functions to print"
    )
    p_prof.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "calls"],
        help="pstats sort order",
    )
    p_prof.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON (hot functions + subsystem rollup)",
    )
    p_prof.set_defaults(func=_cmd_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

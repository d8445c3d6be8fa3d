"""``python -m repro campaign run|status|resume|report``.

Exit codes (``run``/``resume``/``report`` — documented in
docs/campaigns.md, CI branches on them):

* 0 — every cell certified
* 1 — at least one SC violation or forbidden litmus outcome
* 2 — usage/spec error
* 3 — typed diagnosable failure (or infra-failed cells)
* 4 — livelock among the failures
* 5 — crash-unrecovered among the failures
* 6 — campaign incomplete (``report`` on an interrupted store)

``status`` always exits 0; it reports progress, failure counts,
retry/timeout accounting, and an ETA.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import CampaignError, ReproError
from repro.params import CERTIFY_MAX_EVENTS


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _load_or_build_spec(args: argparse.Namespace):
    from repro.campaign.spec import CampaignSpec

    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            return CampaignSpec.from_obj(json.load(handle))
    if not args.workloads:
        raise CampaignError(
            "either --spec FILE or at least one --workloads entry is required"
        )
    return CampaignSpec.build(
        name=args.name,
        configs=args.configs,
        workload_args=args.workloads,
        seeds=args.seeds,
        fault_args=args.faults,
        instructions=args.instructions,
        max_events=args.max_events,
    )


def _options(args: argparse.Namespace):
    from repro.campaign.runner import RunnerOptions

    return RunnerOptions(
        jobs=args.jobs,
        shard_size=args.shard_size,
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        minimize=not args.no_minimize,
        claim_lease=args.claim_lease,
    )


def _finish(payload: dict, as_json: bool) -> int:
    from repro.campaign.report import render_report, report_exit_code

    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_report(payload))
    return report_exit_code(payload)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.campaign.runner import run_campaign
    from repro.campaign.store import CampaignStore

    spec = _load_or_build_spec(args)
    store = CampaignStore.create(args.dir, spec)
    payload = run_campaign(store, _options(args), progress=_progress)
    return _finish(payload, args.json)


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.campaign.runner import run_campaign
    from repro.campaign.store import CampaignStore

    store = CampaignStore.open(args.dir)
    payload = run_campaign(store, _options(args), progress=_progress)
    return _finish(payload, args.json)


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.campaign.queue import cells_by_key, expand_cells
    from repro.campaign.report import render_status, status_payload
    from repro.campaign.store import CampaignStore

    store = CampaignStore.open(args.dir)
    cells = expand_cells(store.spec)
    unique = cells_by_key(cells)
    queue_cells = [c for c in cells if unique[c.key] is c]
    payload = status_payload(store, queue_cells)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_status(payload))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.campaign.queue import cells_by_key, expand_cells
    from repro.campaign.report import aggregate_report
    from repro.campaign.store import CampaignStore

    store = CampaignStore.open(args.dir)
    cells = expand_cells(store.spec)
    unique = cells_by_key(cells)
    queue_cells = [c for c in cells if unique[c.key] is c]
    state = store.load()
    outcomes = {key: record["outcome"] for key, record in state.results.items()}
    payload = aggregate_report(store.spec, queue_cells, outcomes)
    return _finish(payload, args.json)


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per shard (1 = serial, 0 = one per CPU)",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=64,
        help="cells per durability shard (results + checkpoint are "
        "fsynced together after each shard; default 64)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; a livelocked cell is killed "
        "and recorded as a failed cell rather than hanging the campaign",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-fork budget for a worker that dies mid-cell "
        "(exponential backoff; default 2)",
    )
    parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip ddmin-minimizing failing cells into replay traces",
    )
    parser.add_argument(
        "--claim-lease",
        type=float,
        default=900.0,
        metavar="SECONDS",
        help="advisory wall-clock lease on each shard claim; `campaign "
        "status` flags in-flight claims past their lease as stale "
        "(default 900)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")


def add_campaign_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "campaign",
        help="durable, resumable certification campaigns",
        description=(
            "Expand a campaign spec (configs x workloads x fault variants "
            "x seeds) into a deterministic cell queue, execute it in "
            "checkpointed shards, and survive kill -9: `resume` skips "
            "finished cells and the final report is bit-identical to an "
            "uninterrupted run."
        ),
    )
    csub = parser.add_subparsers(dest="campaign_command", required=True)

    p_run = csub.add_parser("run", help="create a campaign store and run it")
    p_run.add_argument("--dir", required=True, help="campaign store directory")
    p_run.add_argument("--spec", help="campaign spec JSON file")
    p_run.add_argument("--name", default="campaign", help="campaign name")
    p_run.add_argument(
        "--configs",
        nargs="+",
        default=["BSCdypvt"],
        help="named configurations (default BSCdypvt)",
    )
    p_run.add_argument(
        "--workloads",
        nargs="+",
        default=None,
        help="workload shorthands: litmus, litmus:NAME[/S1-S2], "
        "app:NAME, apps",
    )
    p_run.add_argument(
        "--seeds",
        default="0:1",
        help="seed range START:STOP (half-open), list 1,2,5, or one seed",
    )
    p_run.add_argument(
        "--faults",
        nargs="+",
        default=["none"],
        help="fault variants: e.g. none, drop,delay,dup, "
        "'drop@0.2', 'kill-acks!', 'drop+grant:1:arbiter0'",
    )
    p_run.add_argument(
        "--instructions",
        type=int,
        default=2000,
        help="per-thread instruction budget for app workloads",
    )
    p_run.add_argument(
        "--max-events",
        type=int,
        default=CERTIFY_MAX_EVENTS,
        help="per-cell event budget (livelock abort)",
    )
    _add_exec_flags(p_run)
    p_run.set_defaults(func=_cmd_campaign_run)

    p_resume = csub.add_parser(
        "resume", help="continue an interrupted campaign to completion"
    )
    p_resume.add_argument("--dir", required=True)
    _add_exec_flags(p_resume)
    p_resume.set_defaults(func=_cmd_campaign_resume)

    p_status = csub.add_parser(
        "status", help="progress, failures, retries, ETA"
    )
    p_status.add_argument("--dir", required=True)
    p_status.add_argument("--json", action="store_true", help="emit JSON")
    p_status.set_defaults(func=_cmd_campaign_status)

    p_report = csub.add_parser(
        "report", help="recompute and print the aggregate report"
    )
    p_report.add_argument("--dir", required=True)
    p_report.add_argument("--json", action="store_true", help="emit JSON")
    p_report.set_defaults(func=_cmd_campaign_report)


def _guarded(fn, args: argparse.Namespace) -> int:
    try:
        return fn(args)
    except CampaignError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"campaign: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    return _guarded(_cmd_run, args)


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    return _guarded(_cmd_resume, args)


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    return _guarded(_cmd_status, args)


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    return _guarded(_cmd_report, args)

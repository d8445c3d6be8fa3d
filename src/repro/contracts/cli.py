"""The ``analyze contracts`` CLI: static contract checking of traces.

Mirrors the other ``analyze`` passes' conventions — JSON or human
reports, deterministic output, exit codes 0 (clean) / 1 (findings) /
2 (usage) — and adds the bounded protocol model checker behind
``--modelcheck`` (runnable with or without traces: the model checker
needs no input at all).
"""

from __future__ import annotations

import argparse
import json
from typing import List

from repro.contracts.checker import CHECKABLE, ContractError

EXIT_CLEAN = 0
EXIT_FINDINGS = 1


def cmd_contracts(args: argparse.Namespace) -> int:
    """Check contracts over each trace and/or run the model checker."""
    from repro.contracts.checker import check_trace, render_report
    from repro.contracts.modelcheck import render_modelcheck, verify_contracts
    from repro.replay.schema import read_trace

    if not args.traces and not args.modelcheck:
        raise ContractError(
            "nothing to do: give at least one TRACE or --modelcheck"
        )
    payloads: List[dict] = []
    texts: List[str] = []
    findings = 0

    for path in args.traces:
        try:
            trace = read_trace(path)
        except OSError as exc:
            raise ContractError(f"cannot read trace {path!r}: {exc}")
        report = check_trace(trace, components=args.component or None)
        if not report.ok:
            findings += 1
        payload = {"trace": path}
        payload.update(report.payload())
        payloads.append(payload)
        texts.append(render_report(report, name=path))

    if args.modelcheck:
        result = verify_contracts(
            procs=args.procs, chunks=args.chunks, max_paths=args.max_paths
        )
        if not result["ok"]:
            findings += 1
        payloads.append({"modelcheck": result})
        texts.append(render_modelcheck(result))

    if args.json:
        body = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        print("\n\n".join(texts))
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def add_contracts_args(passes: argparse._SubParsersAction) -> None:
    """Register the ``contracts`` pass on the ``analyze`` subparsers."""
    parser = passes.add_parser(
        "contracts",
        help="per-component ordering contracts + composition over traces",
    )
    parser.add_argument(
        "traces", nargs="*",
        help="recorded trace files (.jsonl) to contract-check",
    )
    parser.add_argument(
        "--component", action="append", choices=list(CHECKABLE),
        help="check only this component (repeatable; default: all + "
             "composition)",
    )
    parser.add_argument(
        "--modelcheck", action="store_true",
        help="also run the bounded protocol model checker "
             "(non-vacuity + seeded mutations)",
    )
    parser.add_argument(
        "--procs", type=int, default=2,
        help="model-checker processor count (default 2)",
    )
    parser.add_argument(
        "--chunks", type=int, default=2,
        help="model-checker chunks per processor (default 2)",
    )
    parser.add_argument(
        "--max-paths", type=int, default=200_000,
        help="model-checker interleaving budget (default 200000)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.set_defaults(analyze_func=cmd_contracts)

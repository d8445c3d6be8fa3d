"""CLI for the multi-process service: ``serve`` and ``service ...``.

``serve`` runs **one** component in the foreground — the supervisor
spawns one ``python -m repro serve --role <role> --index <i>`` process
per node, arbiter, and proxy fleet, so a ``kill -9`` on any of them is a
real crash.  ``serve --role cluster`` is the interactive variant: it
supervises a whole cluster from one terminal until interrupted.

``service bench`` drives the open-loop generator (optionally killing
the primary arbiter mid-load and/or running the wire through fault
proxies) and certifies the merged live history; ``service certify``
re-certifies a finished run directory.

Exit codes (``service bench`` / ``service certify``):

* ``0`` — run complete and fully certified (SC, contracts, replica
  convergence, zero acknowledged-write loss).
* ``1`` — the run finished but certification failed: the merged live
  history is not SC, a component contract broke, replicas diverged, or
  an acknowledged write was lost.
* ``2`` — configuration error (bad profile, bad fault spelling, bad
  partition window, unusable service directory).
* ``3`` — service error: the cluster never became ready, a leg
  exhausted its retry budget, or a component failed diagnosably.

``serve`` itself exits ``0`` on a clean shutdown request, ``2`` on
configuration errors, and ``3`` when the component dies on a typed
service error.  The full cross-command table lives in docs/api.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.errors import ConfigError, ReproError, ServiceError


# ----------------------------------------------------------------------
# serve — one component in the foreground
# ----------------------------------------------------------------------

def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.cluster import ClusterConfig

    try:
        config = ClusterConfig.load(args.cluster)
    except (OSError, ValueError, ConfigError) as exc:
        print(f"serve: cannot load cluster config: {exc}", file=sys.stderr)
        return 2
    try:
        if args.role == "node":
            return _serve_node(config, args)
        if args.role == "arbiter":
            return _serve_arbiter(config, args)
        if args.role == "proxy":
            return _serve_proxy(config, args)
        if args.role == "cluster":
            return _serve_cluster(config, args)
        print(f"serve: unknown role {args.role!r}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"serve: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        return 0


def _serve_node(config, args: argparse.Namespace) -> int:
    from repro.service.node import NodeServer

    if not 0 <= args.index < len(config.nodes):
        raise ConfigError(
            f"node index {args.index} out of range (cluster has "
            f"{len(config.nodes)} nodes)"
        )
    server = NodeServer(config, args.index)
    asyncio.run(server.serve())
    return 0


def _serve_arbiter(config, args: argparse.Namespace) -> int:
    from repro.service.arbiter_server import ArbiterServer

    if not 0 <= args.index < len(config.arbiters):
        raise ConfigError(
            f"arbiter index {args.index} out of range (cluster has "
            f"{len(config.arbiters)} arbiters)"
        )
    server = ArbiterServer(config, args.index)
    asyncio.run(server.serve())
    return 0


def _build_wire_faults(args: argparse.Namespace):
    from repro.faults.plan import FaultPlan
    from repro.service.faultproxy import WireFaults, parse_partitions

    plan = FaultPlan.parse(args.faults, rate=args.fault_rate)
    faults = WireFaults.from_plan(
        plan, partitions=parse_partitions(args.partition or [])
    )
    faults.validate()
    return faults


def _serve_proxy(config, args: argparse.Namespace) -> int:
    from repro.service.faultproxy import ProxyFleet

    fleet = ProxyFleet(config, _build_wire_faults(args))
    asyncio.run(fleet.run())
    return 0


def _serve_cluster(config, args: argparse.Namespace) -> int:
    """Foreground supervisor: run the whole cluster until interrupted."""
    import time

    from repro.service.supervisor import Supervisor

    fault_args = []
    if args.faults:
        fault_args += ["--faults", args.faults]
    if args.fault_rate is not None:
        fault_args += ["--fault-rate", str(args.fault_rate)]
    for window in args.partition or []:
        fault_args += ["--partition", window]
    supervisor = Supervisor(config, fault_args)
    supervisor.start()
    try:
        supervisor.wait_ready()
        print(
            f"cluster up: {len(config.nodes)} nodes, "
            f"{len(config.arbiters)} arbiters "
            f"(dir {config.service_dir}); ctrl-c to stop",
            flush=True,
        )
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        return 0
    finally:
        supervisor.shutdown()
    return 0


# ----------------------------------------------------------------------
# service bench / service certify
# ----------------------------------------------------------------------

def _certification_exit(ok: bool) -> int:
    return 0 if ok else 1


def _cmd_service_bench(args: argparse.Namespace) -> int:
    import tempfile

    from repro.service.bench import BenchOptions, bench_and_certify, render_bench
    from repro.service.certify import render_certification
    from repro.service.faultproxy import parse_partitions

    service_dir = args.dir or tempfile.mkdtemp(prefix="repro-service-")
    try:
        options = BenchOptions(
            service_dir=service_dir,
            profile=args.profile,
            clients=args.clients,
            nodes=args.nodes,
            standbys=args.standbys,
            duration=args.duration,
            rate=args.rate,
            kill_primary_at=args.kill_primary_at,
            faults=args.faults,
            fault_rate=args.fault_rate,
            partitions=parse_partitions(args.partition or []),
            seed=args.seed,
            heartbeat_interval=args.heartbeat_interval,
            lease_timeout=args.lease_timeout,
            request_timeout=args.request_timeout,
        )
        payload, certification = asyncio.run(bench_and_certify(options))
    except ConfigError as exc:
        print(f"service bench: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"service bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_bench(payload))
        print(render_certification(certification))
    return _certification_exit(certification.ok)


def _cmd_service_certify(args: argparse.Namespace) -> int:
    import os

    from repro.service.certify import certify_run, render_certification

    if not os.path.isdir(args.dir):
        print(f"service certify: no such directory {args.dir!r}", file=sys.stderr)
        return 2
    try:
        result = certify_run(args.dir, seed=args.seed)
    except ConfigError as exc:
        print(f"service certify: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"service certify: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(result.payload(), indent=2, sort_keys=True))
    else:
        print(render_certification(result))
    return _certification_exit(result.ok)


def _cmd_service(args: argparse.Namespace) -> int:
    if args.service_command == "bench":
        return _cmd_service_bench(args)
    if args.service_command == "certify":
        return _cmd_service_certify(args)
    raise ServiceError(f"unknown service command {args.service_command!r}")


# ----------------------------------------------------------------------
# parser wiring
# ----------------------------------------------------------------------

def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        default="",
        help="wire fault list (drop, delay, dup; comma-separated; the "
        "simulator's FaultPlan spelling)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=None,
        help="override per-frame fault rate",
    )
    parser.add_argument(
        "--partition",
        action="append",
        default=None,
        metavar="START:DUR",
        help="blackhole window in seconds from proxy start (repeatable)",
    )


def add_serve_parser(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="run one service component (or a whole cluster) in the foreground",
    )
    p.add_argument(
        "--role",
        required=True,
        choices=["node", "arbiter", "proxy", "cluster"],
        help="component to run",
    )
    p.add_argument(
        "--index", type=int, default=0, help="component index within its role"
    )
    p.add_argument(
        "--cluster",
        required=True,
        metavar="FILE",
        help="cluster.json written by the supervisor/bench "
        "(repro.service.cluster.ClusterConfig)",
    )
    _add_fault_flags(p)
    p.set_defaults(func=_cmd_serve)


def add_service_parser(sub) -> None:
    p = sub.add_parser(
        "service",
        help="benchmark and certify the crash-tolerant multi-process service",
    )
    service_sub = p.add_subparsers(dest="service_command", required=True)

    p_bench = service_sub.add_parser(
        "bench",
        help="open-loop load against a live cluster, then certify the run",
    )
    p_bench.add_argument(
        "--dir", default=None,
        help="service directory (default: a fresh temp directory)",
    )
    p_bench.add_argument(
        "--profile", default="sjbb2k", choices=["sjbb2k", "sweb2005"],
        help="commercial profile shaping the batches (default sjbb2k)",
    )
    p_bench.add_argument("--clients", type=int, default=4)
    p_bench.add_argument("--nodes", type=int, default=2)
    p_bench.add_argument(
        "--standbys", type=int, default=1,
        help="standby arbiters behind the primary (default 1)",
    )
    p_bench.add_argument(
        "--duration", type=float, default=4.0, help="seconds of load"
    )
    p_bench.add_argument(
        "--rate", type=float, default=25.0,
        help="open-loop batches/sec per client",
    )
    p_bench.add_argument(
        "--kill-primary-at", type=float, default=None, metavar="SECONDS",
        help="kill -9 the primary arbiter this many seconds into the load",
    )
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--heartbeat-interval", type=float, default=0.05,
        help="standby heartbeat period in seconds",
    )
    p_bench.add_argument(
        "--lease-timeout", type=float, default=0.4,
        help="primary lease: a standby takes over after this silence",
    )
    p_bench.add_argument(
        "--request-timeout", type=float, default=1.0,
        help="per-request timeout before a retry leg gives up",
    )
    p_bench.add_argument("--json", action="store_true", help="emit JSON")
    _add_fault_flags(p_bench)
    p_bench.set_defaults(func=_cmd_service)

    p_cert = service_sub.add_parser(
        "certify",
        help="re-certify a finished service run directory",
    )
    p_cert.add_argument("dir", help="service directory with record logs")
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--json", action="store_true", help="emit JSON")
    p_cert.set_defaults(func=_cmd_service)


__all__ = ["add_serve_parser", "add_service_parser"]

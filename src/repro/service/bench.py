"""Open-loop service benchmark: sustained txn/sec with live certification.

The generator reuses the commercial application profiles
(:mod:`repro.workloads.commercial`): each client session issues batches
whose read-set size, shared-write frequency, and hot/partitioned key mix
come from the chosen profile, scaled down to key-value granularity.
Arrivals are **open-loop** — batch *n* is due at ``n / rate`` seconds
whether or not batch *n-1* finished, and latency is measured from the
*due* time, so a stalled service (say, during an arbiter takeover)
shows up as queueing delay instead of silently slowing the load down.

``kill_primary_at`` turns a bench run into the failover acceptance
drill: the primary arbiter gets ``kill -9`` mid-load, the standby must
take over within its lease, and the run still has to certify — SC,
contracts, replica convergence, and zero acknowledged-write loss.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.rng import derive_seed
from repro.errors import ServiceError, TransportError
from repro.service import clock
from repro.service.certify import certify_run
from repro.service.client import KVClient, Op
from repro.service.cluster import ClusterConfig, build_cluster_config
from repro.service.supervisor import Supervisor, sync_request
from repro.workloads.commercial import COMMERCIAL_PROFILES
from repro.workloads.profiles import AppProfile

#: Keys-per-line scale when projecting a profile's line counts onto KV
#: batches: commercial read sets (~40-60 lines) become ~6-9 reads.
KEY_SCALE = 0.15


@dataclass(frozen=True)
class BenchOptions:
    """One service bench run."""

    service_dir: str
    profile: str = "sjbb2k"
    clients: int = 4
    nodes: int = 2
    standbys: int = 1
    duration: float = 4.0
    #: Open-loop arrival rate, batches per second per client.
    rate: float = 25.0
    kill_primary_at: Optional[float] = None
    faults: str = ""
    fault_rate: Optional[float] = None
    partitions: Tuple[Tuple[float, float], ...] = ()
    seed: int = 0
    heartbeat_interval: float = 0.05
    lease_timeout: float = 0.4
    request_timeout: float = 1.0


@dataclass
class _ClientStats:
    committed: int = 0
    errors: int = 0
    latencies: List[float] = field(default_factory=list)
    completions: List[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# Batch shapes from commercial profiles
# ----------------------------------------------------------------------

def batch_for(profile: AppProfile, rng: random.Random, client: int) -> List[Op]:
    """One KV batch shaped like one of the profile's chunks."""
    hot_keys = max(8, int(profile.hot_lines * KEY_SCALE))
    part_keys = max(16, int(profile.partition_lines * KEY_SCALE / 16))
    reads = max(2, round(profile.shared_read_lines * KEY_SCALE))
    ops: List[Op] = []
    for _ in range(reads):
        if rng.random() < 0.5:
            key = rng.randrange(hot_keys)  # contended hot set
        else:
            key = 10_000 + client * 1_000 + rng.randrange(part_keys)
        ops.append(("r", key))
    if rng.random() < profile.shared_write_frequency:
        writes = max(1, round(profile.shared_write_lines * 0.5))
        for _ in range(writes):
            key = rng.randrange(hot_keys)
            ops.append(("w", key, rng.randrange(1, 1 << 30)))
        # Migratory pattern: commits also touch the session's partition.
        key = 10_000 + client * 1_000 + rng.randrange(part_keys)
        ops.append(("w", key, rng.randrange(1, 1 << 30)))
    return ops


async def _client_loop(
    kv: KVClient,
    profile: AppProfile,
    options: BenchOptions,
    stats: _ClientStats,
    started: float,
) -> None:
    rng = random.Random(derive_seed(options.seed, f"bench/{kv.index}"))
    interval = 1.0 / options.rate
    n = 0
    while True:
        due = started + n * interval
        n += 1
        now = clock.monotonic()
        if due - now > 0:
            await asyncio.sleep(due - now)
        if clock.monotonic() - started >= options.duration:
            return
        ops = batch_for(profile, rng, kv.index)
        if not ops:
            continue
        try:
            await kv.txn(ops)
        except (ServiceError, TransportError):
            stats.errors += 1
            continue
        done = clock.monotonic()
        stats.committed += 1
        stats.latencies.append(done - due)
        stats.completions.append(done - started)


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _max_stall(completions: Sequence[float], window: Tuple[float, float]) -> float:
    """Largest gap between consecutive commits inside a time window."""
    inside = sorted(c for c in completions if window[0] <= c <= window[1])
    if len(inside) < 2:
        return float(window[1] - window[0])
    return max(b - a for a, b in zip(inside, inside[1:]))


# ----------------------------------------------------------------------

async def run_bench(options: BenchOptions) -> dict:
    """Run one bench (optionally with a mid-load arbiter kill); certify."""
    try:
        profile = COMMERCIAL_PROFILES[options.profile]
    except KeyError:
        raise ServiceError(
            f"unknown profile {options.profile!r}; choose from "
            f"{sorted(COMMERCIAL_PROFILES)}"
        ) from None
    with_proxies = bool(options.faults or options.partitions)
    config = build_cluster_config(
        options.service_dir,
        options.nodes,
        num_standbys=options.standbys,
        with_proxies=with_proxies,
        seed=options.seed,
        heartbeat_interval=options.heartbeat_interval,
        lease_timeout=options.lease_timeout,
        request_timeout=options.request_timeout,
    )
    fault_args: List[str] = []
    if options.faults:
        fault_args += ["--faults", options.faults]
    if options.fault_rate is not None:
        fault_args += ["--fault-rate", str(options.fault_rate)]
    for start, duration in options.partitions:
        fault_args += ["--partition", f"{start}:{duration}"]
    supervisor = Supervisor(config, fault_args)
    supervisor.start()
    killed_at: Optional[float] = None
    try:
        supervisor.wait_ready()
        clients = [KVClient(config, i) for i in range(options.clients)]
        all_stats = [_ClientStats() for _ in clients]
        started = clock.monotonic()
        tasks = [
            asyncio.ensure_future(
                _client_loop(kv, profile, options, stats, started)
            )
            for kv, stats in zip(clients, all_stats)
        ]
        if options.kill_primary_at is not None:
            await asyncio.sleep(options.kill_primary_at)
            loop = asyncio.get_event_loop()
            await loop.run_in_executor(None, supervisor.kill, "arbiter-0")
            killed_at = clock.monotonic() - started
        await asyncio.gather(*tasks)
        elapsed = clock.monotonic() - started
        takeovers = _collect_takeovers(config)
        for kv in clients:
            await kv.close()
    finally:
        supervisor.shutdown()
    certification = certify_run(options.service_dir, seed=options.seed)
    committed = sum(s.committed for s in all_stats)
    errors = sum(s.errors for s in all_stats)
    latencies = [lat for s in all_stats for lat in s.latencies]
    completions = [c for s in all_stats for c in s.completions]
    payload = {
        "profile": options.profile,
        "clients": options.clients,
        "nodes": options.nodes,
        "standbys": options.standbys,
        "duration_s": round(elapsed, 3),
        "offered_rate_txn_s": options.clients * options.rate,
        "committed": committed,
        "errors": errors,
        "throughput_txn_s": round(committed / elapsed, 2) if elapsed else 0.0,
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50) * 1e3, 2),
            "p95": round(_percentile(latencies, 0.95) * 1e3, 2),
            "p99": round(_percentile(latencies, 0.99) * 1e3, 2),
            "max": round(max(latencies) * 1e3, 2) if latencies else 0.0,
        },
        "faults": {
            "spelling": options.faults,
            "rate": options.fault_rate,
            "partitions": [list(w) for w in options.partitions],
        },
        "failover": {
            "killed_primary_at_s": killed_at,
            "takeovers": takeovers,
            "max_commit_stall_s": (
                round(
                    _max_stall(
                        completions, (killed_at, min(killed_at + 5.0, elapsed))
                    ),
                    3,
                )
                if killed_at is not None
                else None
            ),
        },
        "certification": certification.payload(),
    }
    return payload


def _collect_takeovers(config: ClusterConfig) -> int:
    total = 0
    for endpoint in config.arbiters:
        try:
            status = sync_request(
                endpoint.host, endpoint.port, "status", timeout=1.0
            )
        except (OSError, ServiceError):
            continue
        total += int(status.get("takeovers", 0))
    return total


def render_bench(payload: dict) -> str:
    lat = payload["latency_ms"]
    lines = [
        f"{payload['profile']}: {payload['committed']} txns committed in "
        f"{payload['duration_s']}s over {payload['clients']} clients / "
        f"{payload['nodes']} nodes -> {payload['throughput_txn_s']} txn/s "
        f"({payload['errors']} errors)",
        f"latency ms: p50={lat['p50']} p95={lat['p95']} p99={lat['p99']} "
        f"max={lat['max']}",
    ]
    failover = payload["failover"]
    if failover["killed_primary_at_s"] is not None:
        lines.append(
            f"failover: primary killed at {failover['killed_primary_at_s']:.2f}s, "
            f"takeovers={failover['takeovers']}, max commit stall "
            f"{failover['max_commit_stall_s']}s"
        )
    return "\n".join(lines)


__all__ = ["BenchOptions", "batch_for", "render_bench", "run_bench"]

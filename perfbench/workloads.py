"""One benchmark round in a fresh process: set up, run, check, report.

``run.py`` spawns this file once per round and reads the one JSON line it
prints last::

    python3 perfbench/workloads.py --workload paper --seed 0 [--size smoke]
        [--setup-only] [--trace-out spans.json]

The process reports ``ready_at`` (``time.monotonic()``, which is
system-wide on Linux) when set-up is done, so the parent measures set-up
from its own spawn time: interpreter start, imports, input generation,
and for ``service`` the cluster spawn up to every server answering.  It
also reports ``ready_cal_s``, the calibration it runs right then, which
with the parent's own calibration before the spawn scales set-up time to
the reference speed (``hostspeed.py``).  Round times are scaled by a
``RefClock``.

Workloads (see README.md for why each exists):

* ``paper``: the real harness regenerates Fig 9, Table 3, Table 4, Fig 10
  and Fig 11 with a serial ``SweepRunner``.
* ``commit_storm``: sharing-heavy apps under BSCdypvt and BSCexact with
  tiny chunks, a drop/delay/dup fault plan and one scripted arbiter
  crash; every run must be SC-certified.
* ``service``: two client sessions drive a 2-node ``repro serve`` cluster
  (primary arbiter + 1 standby) open-loop in calibrated segments, then
  closed-loop; the merged log must certify.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
from hostspeed import RefClock  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Work per round.  ``paper`` asks for 1000 instructions per thread; the
#: generator's floor of one ~1000-instruction interval per barrier phase
#: makes the apps retire ~1.2k-6k instructions per thread.
SIZES = {
    "full": {
        "paper": {"instructions": 1000, "apps": None},
        "commit_storm": {
            "instructions": 1000,
            "apps": ("sjbb2k", "sweb2005", "radix", "ocean"),
            "configs": ("BSCdypvt", "BSCexact"),
            "chunk": 20,
        },
        "service": {
            "open_rate": 200.0,
            "open_seconds": 4.0,
            "open_segments": 4,
            "bursts": 5,
            "burst_txns": 100,
        },
    },
    "smoke": {
        "paper": {"instructions": 1000, "apps": ("radiosity", "sjbb2k")},
        "commit_storm": {
            "instructions": 1000,
            "apps": ("sjbb2k",),
            "configs": ("BSCdypvt", "BSCexact"),
            "chunk": 20,
        },
        "service": {
            "open_rate": 100.0,
            "open_seconds": 1.0,
            "open_segments": 1,
            "bursts": 2,
            "burst_txns": 25,
        },
    },
}

STORM_FAULTS = "drop,delay,dup"
STORM_CRASH = "grant:1:arbiter0"
SERVICE_PROFILE = "sjbb2k"
SERVICE_CLIENTS = 2
SERVICE_NODES = 2
SERVICE_STANDBYS = 1
#: Each session's keys are offset by ``client * SESSION_KEY_SPAN``.
SESSION_KEY_SPAN = 1_000_000
#: The cluster's arbiter lease.  The default 0.4 s is a stall a busy
#: shared host can cause, and a takeover fails the run.
SERVICE_LEASE_S = 2.0
#: A round's traffic must end by then, or the round fails.
SERVICE_DRIVE_TIMEOUT_S = 60.0
RETRY_KEYS = ("commit.request_resends", "commit.grant_resends", "commit.ack_recollections")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


# ----------------------------------------------------------------------
# Per-run deterministic counts and digests
# ----------------------------------------------------------------------

class Counts:
    """Deterministic work counts summed over every simulation of a round."""

    def __init__(self) -> None:
        self.c: Dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.c[key] = self.c.get(key, 0) + value

    def add_result(self, result) -> None:
        for key, value in result.stats.items():
            if key.endswith(".chunk_commits"):
                self.add("commits", value)
            elif key.endswith(".chunk_squashes"):
                self.add("squashes", value)
            elif key in RETRY_KEYS:
                self.add("retries", value)
            elif key == "recovery.crashes":
                self.add("crashes", value)
            elif key == "dirbdm.lookups":
                self.add("dir_lookups", value)
            elif key == "dirbdm.unnecessary_lookups":
                self.add("dir_unnecessary", value)
            elif key.startswith("coherence.fill."):
                self.add("fills", value)
        self.add("events", result.machine.sim.events_fired)
        self.add("bytes", sum(result.traffic_bytes.values()))
        self.add("instructions", result.total_instructions)

    def get(self, key: str) -> float:
        return self.c.get(key, 0)


def result_digest(result) -> str:
    """Digest of one run's deterministic stats, registers and traffic."""
    payload = json.dumps(
        [
            result.cycles,
            result.total_instructions,
            sorted(result.stats.items()),
            sorted((proc, sorted(regs.items())) for proc, regs in result.registers.items()),
            sorted(result.traffic_bytes.items()),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def data_digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb(pids=()) -> float:
    """This process's peak RSS plus each listed live process's (VmHWM)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# paper
# ----------------------------------------------------------------------

class Paper:
    """Regenerate the five paper artifacts with the real harness."""

    def __init__(self, seed: int, size: dict, tracer: Optional[Tracer]):
        from repro.harness import experiments, runner

        self.seed = seed
        self.instructions = size["instructions"]
        self.apps = size["apps"] or runner.ALL_APPS
        self.experiments = experiments
        self.tracer = tracer
        self.counts = Counts()
        self.cells: List[str] = []
        self.cell_digests: List[str] = []
        self.clock: Optional[RefClock] = None
        self._hook_cells(runner.SweepRunner)

    def _hook_cells(self, cls) -> None:
        """Digest every simulated cell (memo hits never get here)."""
        original = cls._run_cell
        bench = self
        record = self._record
        if self.tracer is not None:
            record = self.tracer.span("bench.check", record)

        def _run_cell(runner, cell):
            result = original(runner, cell)
            bench.clock.pause()
            record(cell, result)
            bench.clock.resume()
            return result

        cls._run_cell = _run_cell

    def _record(self, cell, result) -> None:
        self.cells.append(f"{len(self.cells)}:{cell[0]}:{cell[1]}")
        self.cell_digests.append(result_digest(result))
        self.counts.add_result(result)

    def run(self, clock: RefClock) -> dict:
        from repro.harness.runner import SweepRunner

        exp = self.experiments
        n, seed, apps = self.instructions, self.seed, self.apps
        self.clock = clock
        clock.resume()
        runner = SweepRunner(instructions_per_thread=n, seed=seed)
        artifacts = {
            "figure9": exp.figure9(runner, apps)[0],
            "table3": exp.table3(runner, apps)[0],
            "table4": exp.table4(runner, apps)[0],
            "figure10": exp.figure10(instructions=n, seed=seed, apps=apps)[0],
            "figure11": exp.figure11(instructions=n, seed=seed, apps=apps)[0],
        }
        clock.pause()
        clock.flush()
        return {"artifact_digest": data_digest(artifacts)}

    def report(self) -> dict:
        return {
            "units": len(self.cells),
            "failed_units": 0,
            "labels": self.cells,
            "digests": self.cell_digests,
            "instructions": self.counts.get("instructions"),
            "commits": self.counts.get("commits"),
            "peak_rss_mb": peak_rss_mb(),
        }


# ----------------------------------------------------------------------
# commit_storm
# ----------------------------------------------------------------------

class CommitStorm:
    """Certified fault-injected runs that hammer the commit pipeline."""

    def __init__(self, seed: int, size: dict, tracer: Optional[Tracer]):
        from repro.faults.plan import FaultPlan, crash_script_from
        from repro.harness import runner
        from repro.params import NAMED_CONFIGS

        self.seed = seed
        self.tracer = tracer
        self.plan = FaultPlan.parse(STORM_FAULTS)
        self.crash_script = crash_script_from([STORM_CRASH])
        self.counts = Counts()
        self.inputs = []
        for app in size["apps"]:
            for name in size["configs"]:
                config = NAMED_CONFIGS[name](seed=seed).with_bulksc(
                    chunk_size_instructions=size["chunk"]
                )
                if tracer is not None:
                    tracer.begin_group(name)
                workload = runner.build_app_workload(app, config, size["instructions"], seed)
                self.inputs.append((f"{app}:{name}", name, config, workload))
        self.labels: List[str] = []
        self.digests: List[str] = []
        self.failed = 0
        self.errors: List[str] = []

    def run(self, clock: RefClock) -> dict:
        from repro import system
        from repro.errors import ReproError
        from repro.faults.chaos import CHAOS_MAX_EVENTS
        from repro.faults.injector import FaultInjector
        from repro.verify import sc_checker

        record = self._record
        if self.tracer is not None:
            record = self.tracer.span("bench.check", record)
        for label, name, config, workload in self.inputs:
            if self.tracer is not None:
                self.tracer.begin_group(name)
            injector = FaultInjector(self.plan, seed=self.seed, label=f"storm/{label}")
            injector.crash_script = dict(self.crash_script)
            result, certified, error = None, False, None
            clock.resume()
            try:
                result = system.run_workload(
                    config,
                    workload.programs,
                    workload.address_space,
                    record_history=True,
                    fault_injector=injector,
                    max_events=CHAOS_MAX_EVENTS,
                )
                certified = sc_checker.check_sequential_consistency(result.history).ok
            except ReproError as exc:
                error = f"{type(exc).__name__}: {exc}"
            clock.pause()
            record(label, injector, result, certified, error)
        clock.flush()
        return {}

    def _record(self, label, injector, result, certified, error) -> None:
        self.labels.append(label)
        self.counts.add("faults", injector.total_injected)
        if result is None or not certified:
            self.failed += 1
            self.errors.append(f"{label}: {error or 'no SC certificate'}")
            self.digests.append("")
        else:
            self.digests.append(result_digest(result))
            self.counts.add_result(result)

    def report(self) -> dict:
        return {
            "units": len(self.labels),
            "failed_units": self.failed,
            "errors": self.errors,
            "labels": self.labels,
            "digests": self.digests,
            "instructions": self.counts.get("instructions"),
            "commits": self.counts.get("commits"),
            "peak_rss_mb": peak_rss_mb(),
        }


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------

def own_keys(ops: list, client: int) -> list:
    """``ops`` moved into the session's own key range.

    ``batch_for`` gives every session the same hot set.  Two sessions'
    batches on it conflict, and a denied batch sleeps a randomized retry
    backoff (20 ms and up) before it retries.  That backoff set ≈8% of the
    open-loop latencies and most of the closed-loop time, so the figures
    measured chance, not the service; with no shared key nothing conflicts.
    """
    offset = client * SESSION_KEY_SPAN
    return [(op[0], op[1] + offset, *op[2:]) for op in ops]


class Service:
    """Open- then closed-loop sjbb2k batches against a live cluster."""

    def __init__(self, seed: int, size: dict, tracer: Optional[Tracer]):
        from repro.service.bench import batch_for
        from repro.service.cluster import build_cluster_config
        from repro.service.supervisor import Supervisor
        from repro.workloads.commercial import COMMERCIAL_PROFILES

        self.seed = seed
        self.size = size
        self.tracer = tracer
        self.counts = Counts()
        profile = COMMERCIAL_PROFILES[SERVICE_PROFILE]
        open_count = int(
            size["open_rate"] / SERVICE_CLIENTS * size["open_seconds"] / size["open_segments"]
        )
        self.open_batches, self.closed_batches = [], []
        for client in range(SERVICE_CLIENTS):
            rng = random.Random(seed * 7919 + client)
            self.open_batches.append(
                [
                    [own_keys(batch_for(profile, rng, client), client) for _ in range(open_count)]
                    for _ in range(size["open_segments"])
                ]
            )
            self.closed_batches.append(
                [
                    [
                        own_keys(batch_for(profile, rng, client), client)
                        for _ in range(size["burst_txns"])
                    ]
                    for _ in range(size["bursts"])
                ]
            )
        self.service_dir = os.path.join(OUT_DIR, f"service-{os.getpid()}-{time.time_ns()}")
        self.config = build_cluster_config(
            self.service_dir,
            SERVICE_NODES,
            num_standbys=SERVICE_STANDBYS,
            seed=seed,
            lease_timeout=SERVICE_LEASE_S,
        )
        self.supervisor = Supervisor(self.config)
        self.supervisor.start()
        try:
            self.supervisor.wait_ready()
        except BaseException:
            self.cleanup()
            raise
        self.txn_errors = 0
        self.attempted = 0
        self.latencies: List[float] = []
        self.read_s: List[float] = []
        self.write_s: List[float] = []
        self.late_s: List[float] = []
        self.closed_ops = 0
        self.closed_txns = 0
        #: Per closed-loop burst: (committed txns, ops, seconds).
        self.bursts: List[tuple] = []
        self.certify_s = 0.0
        #: Reference seconds per host second for this round.
        self.scale = 1.0
        self.certified = False
        self.takeovers = 0
        self.rss_mb = 0.0
        self.txn_id = 0

    async def _txn(self, kv, ops) -> bool:
        from repro.errors import ServiceError, TransportError

        self.attempted += 1
        self.txn_id += 1
        txn_id = self.txn_id
        started = time.perf_counter()
        try:
            await kv.txn(ops)
        except (ServiceError, TransportError):
            self.txn_errors += 1
            return False
        if self.tracer is not None:
            self.tracer.record("service.txn", started, time.perf_counter(), txn_id)
        return True

    async def _open_client(self, kv, batches, started: float) -> None:
        interval = SERVICE_CLIENTS / self.size["open_rate"]
        for n, ops in enumerate(batches):
            due = started + n * interval
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.monotonic()
            self.late_s.append(sent - due)
            if not await self._txn(kv, ops):
                continue
            done = time.monotonic()
            self.latencies.append(done - due)
            writes = any(op[0] == "w" for op in ops)
            (self.write_s if writes else self.read_s).append(done - sent)

    async def _closed_client(self, kv, batches) -> None:
        for ops in batches:
            if await self._txn(kv, ops):
                self.closed_txns += 1
                self.closed_ops += len(ops)

    async def _drive(self, clock: RefClock) -> None:
        from repro.service.client import KVClient

        clients = [KVClient(self.config, i) for i in range(SERVICE_CLIENTS)]
        try:
            # A calibration follows every open-loop segment (whose schedule
            # starts after it) and every closed-loop burst.
            for segment in range(self.size["open_segments"]):
                started = time.monotonic()
                await asyncio.gather(
                    *(
                        self._open_client(kv, batches[segment], started)
                        for kv, batches in zip(clients, self.open_batches)
                    )
                )
                clock.recalibrate()
            for burst in range(self.size["bursts"]):
                txns, ops = self.closed_txns, self.closed_ops
                started = time.perf_counter()
                await asyncio.gather(
                    *(
                        self._closed_client(kv, batches[burst])
                        for kv, batches in zip(clients, self.closed_batches)
                    )
                )
                elapsed = time.perf_counter() - started
                clock.recalibrate()
                self.bursts.append((self.closed_txns - txns, self.closed_ops - ops, elapsed))
        finally:
            for kv in clients:
                await kv.close()

    def _takeovers(self) -> int:
        from repro.errors import ServiceError
        from repro.service.supervisor import sync_request

        total = 0
        for endpoint in self.config.arbiters:
            try:
                status = sync_request(endpoint.host, endpoint.port, "status", timeout=2.0)
            except (OSError, ServiceError):
                continue
            total += int(status.get("takeovers", 0))
        return total

    def run(self, clock: RefClock) -> dict:
        from repro.service import certify

        stop = self._stop
        if self.tracer is not None:
            stop = self.tracer.span("bench.check", stop)
        asyncio.run(asyncio.wait_for(self._drive(clock), SERVICE_DRIVE_TIMEOUT_S))
        stop()
        clock.recalibrate()
        started = time.perf_counter()
        result = certify.certify_run(self.service_dir, seed=self.seed)
        self.certify_s = time.perf_counter() - started
        clock.recalibrate()
        self.certified = result.ok
        # A few bursts are too few to scale one by one: calibration noise
        # would not average out.  The whole round gets one scale.
        self.scale = clock.median_scale()
        return {}

    def _stop(self) -> None:
        """Read takeovers and peak RSS from the live cluster, then stop it."""
        self.takeovers = self._takeovers()
        self.rss_mb = peak_rss_mb(proc.pid for proc in self.supervisor.procs.values())
        self.close()

    def report(self) -> dict:
        failed = self.txn_errors + (0 if self.certified and self.takeovers == 0 else 1)
        raw_wall = sum(s for __, __, s in self.bursts) + self.certify_s
        return {
            "units": self.attempted + 1,
            "failed_units": failed,
            "errors": [] if failed == 0 else [
                f"{self.txn_errors} txn errors, certified={self.certified}, "
                f"takeovers={self.takeovers}"
            ],
            "latencies_s": [t * self.scale for t in self.latencies],
            "raw_latencies_s": self.latencies,
            "instr_per_s": [ops / (s * self.scale) for __, ops, s in self.bursts],
            "txn_per_s": [txns / (s * self.scale) for txns, __, s in self.bursts],
            "wall_s": raw_wall * self.scale,
            "raw_wall_s": raw_wall,
            # The end-to-end wall_s of a service run is its median burst.
            "wall_samples_s": [s * self.scale for __, __, s in self.bursts],
            "certify_s": self.certify_s,
            "read_p50_ms": percentile(self.read_s, 0.5) * 1e3,
            "write_p50_ms": percentile(self.write_s, 0.5) * 1e3,
            "late_p99_ms": percentile(self.late_s, 0.99) * 1e3,
            "txn_p99_ms": percentile(self.latencies, 0.99) * 1e3,
            "takeovers": self.takeovers,
            "peak_rss_mb": self.rss_mb,
        }

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.shutdown()
            self.supervisor = None

    def cleanup(self) -> None:
        self.close()
        shutil.rmtree(self.service_dir, ignore_errors=True)


WORKLOADS = {"paper": Paper, "commit_storm": CommitStorm, "service": Service}


# ----------------------------------------------------------------------
# Traced-run per-layer metrics
# ----------------------------------------------------------------------

#: Span name -> per-layer metric prefix (``<prefix>.self_s``); every span
#: the tracer records maps to exactly one self-time metric.
SELF_METRIC = {
    "harness.figure9": "harness",
    "harness.figure10": "harness",
    "harness.figure11": "harness",
    "harness.table3": "harness",
    "harness.table4": "harness",
    "harness.cell": "harness",
}

CALL_METRICS = (
    "workloads.build",
    "cpu.opstream.compile",
    "system.machine_init",
    "core.commit.submit",
    "core.arbiter.decide",
    "core.bdm.disambiguate",
    "core.bdm.bulk_invalidate",
    "coherence.fetch",
    "coherence.dirbdm.expand",
    "memory.cache.insert",
    "signatures.disjoint",
    "signatures.decode_sets",
    "signatures.member_many",
    "interconnect.send",
    "verify.sc_check",
)

SELF_ONLY = (
    "engine.loop",
    "engine.action.other",
    "core.driver.step.BSCbase",
    "core.driver.step.BSCdypvt",
    "core.driver.step.BSCexact",
    "core.driver.step.BSCstpvt",
    "core.commit.event",
    "consistency.driver.step.SC",
    "consistency.driver.step.RC",
    "consistency.driver.step.SCpp",
    "harness",
    "service.certify",
)


def layer_metrics(bench, tracer: Tracer, wall: float) -> Dict[str, float]:
    """Every per-layer metric, 0 where this workload never reaches the layer."""
    totals = tracer.totals()
    counts = bench.counts
    report = bench.report()
    m: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    for name, entry in totals.items():
        if name in ("service.txn", "bench.check"):
            continue
        key = SELF_METRIC.get(name, name)
        self_s[key] = self_s.get(key, 0.0) + entry["self_s"]
    for artifact in ("figure9", "figure10", "figure11", "table3", "table4"):
        m[f"harness.{artifact}_s"] = totals.get(f"harness.{artifact}", {}).get("total_s", 0.0)
    m["harness.cells_simulated"] = totals.get("harness.cell", {}).get("calls", 0)
    m["harness.memo_hit_frac"] = (
        tracer.memo_hits / tracer.memo_calls if tracer.memo_calls else 0.0
    )
    for name in CALL_METRICS:
        m[f"{name}.calls"] = totals.get(name, {}).get("calls", 0)
    for name in CALL_METRICS + SELF_ONLY:
        m[f"{name}.self_s"] = self_s.pop(name, 0.0)
    if self_s:
        raise RuntimeError(f"spans without a self-time metric: {sorted(self_s)}")
    m["engine.events"] = counts.get("events")
    m["engine.schedule.calls"] = tracer.schedule_calls
    commits, squashes = counts.get("commits"), counts.get("squashes")
    m["core.commits"] = commits
    m["core.squash_frac"] = squashes / (commits + squashes) if commits + squashes else 0.0
    m["core.commit.retries"] = counts.get("retries")
    m["core.recovery.crashes"] = counts.get("crashes")
    lookups = counts.get("dir_lookups")
    m["coherence.dirbdm.useful_lookup_frac"] = (
        1.0 - counts.get("dir_unnecessary") / lookups if lookups else 0.0
    )
    m["memory.fills"] = counts.get("fills")
    hits, misses = tracer.index_cache_delta()
    m["signatures.index_cache.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    m["interconnect.bytes"] = counts.get("bytes")
    m["faults.injected"] = counts.get("faults")
    m["service.txn_read_ms.p50"] = report.get("read_p50_ms", 0.0)
    m["service.txn_write_ms.p50"] = report.get("write_p50_ms", 0.0)
    m["service.loadgen.late_ms.p99"] = report.get("late_p99_ms", 0.0)
    m["service.txn_ms.p99"] = report.get("txn_p99_ms", 0.0)
    m["service.certify_s"] = report.get("certify_s", 0.0)
    m["service.takeovers"] = report.get("takeovers", 0)
    attributed = sum(v for k, v in m.items() if k.endswith(".self_s"))
    m["trace.unattributed_frac"] = (wall - attributed) / wall
    return m


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    if args.workload == "service":
        # Loaded before the tracer installs, so that its imported name of
        # check_sequential_consistency gets wrapped too.
        import repro.service.certify  # noqa: F401

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    bench = WORKLOADS[args.workload](args.seed, SIZES[args.size][args.workload], tracer)
    ready_at = time.monotonic()
    if tracer is not None:
        # Calibrations are the benchmark's own work, like its checks.
        hostspeed.calibrate = tracer.span("bench.check", hostspeed.calibrate)
    clock = RefClock()
    out = {"ready_at": ready_at, "ready_cal_s": clock.first_cal}
    try:
        if not args.setup_only:
            out.update(bench.run(clock))
            out.update(bench.report())
            out.setdefault("wall_s", clock.ref_s)
            out.setdefault("raw_wall_s", clock.raw_s)
            out.setdefault("wall_samples_s", [out["wall_s"]])
            out["calibrations"] = len(clock.cals)
            # A simulator workload's request is the whole round: a paper
            # regeneration, or a batch of storm runs to certify.
            out.setdefault("latencies_s", [out["wall_s"]])
            if "txn_per_s" not in out:
                out["instr_per_s"] = [out["instructions"] / out["wall_s"]]
                out["txn_per_s"] = [out["commits"] / out["wall_s"]]
            if tracer is not None:
                # The benchmark's own checks run inside "bench.check" spans.
                checks = tracer.totals().get("bench.check", {}).get("total_s", 0.0)
                wall = time.perf_counter() - tracer.started - checks
                out["layers"] = layer_metrics(bench, tracer, wall)
                out["traced_wall_s"] = wall
                tracer.write(args.trace_out)
    finally:
        if isinstance(bench, Service):
            bench.cleanup()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

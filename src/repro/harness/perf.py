"""Core-throughput measurement: events/sec and commits/sec.

The simulator's discrete-event loop is the binding constraint on every
sweep in the harness (figure regeneration, chaos matrices, the crash
acceptance sweep), so this module pins *simulator throughput* itself:

* :func:`measure_litmus_commit_heavy` — the litmus suite under a
  BulkSC configuration with tiny chunks, so nearly every instruction
  pays the full arbitrate/grant/expand/ack pipeline.  This is the
  workload most sensitive to the signature-kernel hot path.
* :func:`measure_synthetic` — one synthetic application at a realistic
  chunk size, dominated by the per-access path (cache, chunking,
  signatures accumulating).

Both report machine-independent *work counts* (events fired, chunk
commits, instructions) alongside wall-clock rates, so a recorded
baseline can distinguish "the simulator got slower" from "the workload
got bigger".  ``benchmarks/bench_core.py`` persists the numbers in
``benchmarks/BENCH_core.json`` and gates regressions in CI;
``python -m repro profile`` wraps the same runs in :mod:`cProfile`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.params import NAMED_CONFIGS, SystemConfig
from repro.replay.workload import LITMUS_STAGGERS, build_workload, litmus_spec
from repro.system import run_workload


@dataclass
class CorePerfResult:
    """Throughput observed over one measured workload."""

    name: str
    runs: int
    events: int
    commits: int
    instructions: int
    cycles: float
    wall_s: float
    repeats: int = 1

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def commits_per_sec(self) -> float:
        return self.commits / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def instructions_per_sec(self) -> float:
        return self.instructions / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "runs": self.runs,
            "events": self.events,
            "commits": self.commits,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "wall_s": round(self.wall_s, 4),
            "events_per_sec": round(self.events_per_sec, 1),
            "commits_per_sec": round(self.commits_per_sec, 1),
            "instructions_per_sec": round(self.instructions_per_sec, 1),
        }

    def render(self) -> str:
        return (
            f"{self.name}: {self.runs} runs, {self.events} events, "
            f"{self.commits} commits in {self.wall_s:.3f}s -> "
            f"{self.events_per_sec:,.0f} events/s, "
            f"{self.commits_per_sec:,.0f} commits/s"
        )


def _commit_heavy_config(config_name: str, seed: int, chunk_size: int) -> SystemConfig:
    config = NAMED_CONFIGS[config_name](seed=seed)
    if config.bulksc is not None:
        config = config.with_bulksc(chunk_size_instructions=chunk_size)
    return config


def _litmus_cells(seed: int) -> List[Tuple[str, int, Tuple[int, int]]]:
    from repro.verify.litmus import all_litmus_tests

    return [
        (test.name, seed, stagger)
        for test in all_litmus_tests()
        for stagger in LITMUS_STAGGERS
    ]


def run_litmus_cell(
    test_name: str,
    config: SystemConfig,
    stagger: Tuple[int, int],
    record_history: bool = False,
):
    """Run one litmus test under ``config`` with a stagger prefix."""
    programs, space, __ = build_workload(litmus_spec(test_name, stagger), config)
    return run_workload(config, programs, space, record_history=record_history)


def measure_litmus_commit_heavy(
    config_name: str = "BSCdypvt",
    seed: int = 0,
    chunk_size: int = 4,
    repeats: int = 1,
) -> CorePerfResult:
    """Sweep the litmus suite with tiny chunks: the commit-pipeline stress.

    A ``chunk_size`` of a few instructions makes every litmus operation
    commit through the arbiter, so throughput here is dominated by the
    disambiguation predicates (arbiter R/W checks, BDM intersections,
    DirBDM expansion) rather than by program execution.
    """
    cells = _litmus_cells(seed)
    best_wall = float("inf")
    events = commits = instructions = 0
    cycles = 0.0
    for __ in range(max(1, repeats)):
        events = commits = instructions = 0
        cycles = 0.0
        start = time.perf_counter()  # detlint: ok[DET003] — benchmark wall-clock, never simulated state
        for test_name, cell_seed, stagger in cells:
            config = _commit_heavy_config(config_name, cell_seed, chunk_size)
            result = run_litmus_cell(test_name, config, stagger)
            events += result.machine.sim.events_fired
            commits += int(result.stat("commit.completed"))
            instructions += result.total_instructions
            cycles += result.cycles
        best_wall = min(best_wall, time.perf_counter() - start)  # detlint: ok[DET003] — benchmark wall-clock, never simulated state
    return CorePerfResult(
        name=f"litmus-commit-heavy[{config_name},chunk={chunk_size}]",
        runs=len(cells),
        events=events,
        commits=commits,
        instructions=instructions,
        cycles=cycles,
        wall_s=best_wall,
        repeats=repeats,
    )


def measure_synthetic(
    app: str = "barnes",
    config_name: str = "BSCdypvt",
    instructions: int = 4000,
    seed: int = 0,
    repeats: int = 1,
) -> CorePerfResult:
    """One synthetic application at the paper's chunk size.

    The workload is built once, outside the timed region, and shared by
    every repeat; repeats after the first also reuse its compiled op
    streams, so with ``repeats >= 2`` the best-of wall time excludes
    op-stream compilation.
    """
    from repro.harness.runner import build_app_workload

    best_wall = float("inf")
    events = commits = retired = 0
    cycles = 0.0
    config = NAMED_CONFIGS[config_name](seed=seed)
    workload = build_app_workload(app, config, instructions, seed)
    for __ in range(max(1, repeats)):
        start = time.perf_counter()  # detlint: ok[DET003] — benchmark wall-clock, never simulated state
        result = run_workload(
            config, workload.programs, workload.address_space, record_history=False
        )
        best_wall = min(best_wall, time.perf_counter() - start)  # detlint: ok[DET003] — benchmark wall-clock, never simulated state
        events = result.machine.sim.events_fired
        commits = int(result.stat("commit.completed"))
        retired = result.total_instructions
        cycles = result.cycles
    return CorePerfResult(
        name=f"synthetic[{app},{config_name},{instructions}i]",
        runs=1,
        events=events,
        commits=commits,
        instructions=retired,
        cycles=cycles,
        wall_s=best_wall,
        repeats=repeats,
    )


def measure_core(
    seed: int = 0,
    repeats: int = 2,
    synthetic_instructions: int = 4000,
) -> Dict[str, CorePerfResult]:
    """The standard core-throughput battery (used by bench and CI gate)."""
    return {
        "litmus_commit_heavy": measure_litmus_commit_heavy(
            seed=seed, repeats=repeats
        ),
        "synthetic": measure_synthetic(
            seed=seed, instructions=synthetic_instructions, repeats=repeats
        ),
    }


# ---------------------------------------------------------------------------
# Profiling (python -m repro profile)
# ---------------------------------------------------------------------------

def profile_run(
    target: str = "litmus",
    config_name: str = "BSCdypvt",
    app: str = "barnes",
    instructions: int = 4000,
    seed: int = 0,
    top: int = 25,
    sort: str = "cumulative",
    as_json: bool = False,
) -> str:
    """Run one workload under :mod:`cProfile`; return the top-N report.

    The text report is the classic pstats table followed by a rollup of
    ``tottime`` per simulator subsystem (``cpu``/``engine``/
    ``signatures``/``core``/...).  With ``as_json`` the same data is
    returned as a machine-readable JSON document instead (consumed by the
    CI perf-smoke artifact).
    """
    import cProfile
    import io
    import pstats

    if target == "litmus":
        def work() -> None:
            for test_name, cell_seed, stagger in _litmus_cells(seed):
                config = _commit_heavy_config(config_name, cell_seed, 4)
                run_litmus_cell(test_name, config, stagger)
    elif target == "synthetic":
        from repro.harness.runner import build_app_workload

        config = NAMED_CONFIGS[config_name](seed=seed)
        workload = build_app_workload(app, config, instructions, seed)

        def work() -> None:
            run_workload(
                config,
                workload.programs,
                workload.address_space,
                record_history=False,
            )
    else:
        raise ValueError(f"unknown profile target {target!r}")

    profiler = cProfile.Profile()
    profiler.enable()
    work()
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats(sort).print_stats(top)
    report = out.getvalue()
    data = profile_data(stats, top=top, sort=sort)
    data["target"] = target
    data["config"] = config_name
    if as_json:
        import json

        return json.dumps(data, indent=2, sort_keys=True)
    return report + "\n" + format_subsystems(data)


def _subsystem_of(filename: str) -> str:
    """Map a profiled filename onto a simulator subsystem bucket.

    Files under ``repro/<package>/`` group by package (``cpu``,
    ``engine``, ``signatures``, ``core``, ...); ``repro``-level modules
    (``system.py``, ``params.py``) report as ``repro``, and everything
    outside the tree (stdlib, builtins) as ``other``.
    """
    normalized = filename.replace("\\", "/")
    marker = "/repro/"
    at = normalized.rfind(marker)
    if at < 0:
        return "other"
    tail = normalized[at + len(marker):]
    if "/" in tail:
        return tail.split("/", 1)[0]
    return "repro"


def profile_data(stats, top: int = 25, sort: str = "cumulative") -> dict:
    """Structured view of a :class:`pstats.Stats`: hot rows + subsystems.

    Returns a JSON-ready dict with the ``top`` functions under the given
    sort order and cumulative time per simulator subsystem (the
    ``tottime`` sum over each package's functions, so subsystem numbers
    add up to the run total instead of double-counting callees).
    """
    sort_key = {"cumulative": "cumtime", "tottime": "tottime", "calls": "calls"}[sort]
    rows = []
    subsystems: dict = {}
    total_tottime = 0.0
    total_calls = 0
    for (filename, line, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        subsystem = _subsystem_of(filename)
        rows.append(
            {
                "function": func,
                "file": filename,
                "line": line,
                "subsystem": subsystem,
                "calls": nc,
                "primitive_calls": cc,
                "tottime": tt,
                "cumtime": ct,
            }
        )
        bucket = subsystems.setdefault(
            subsystem, {"tottime": 0.0, "calls": 0, "functions": 0}
        )
        bucket["tottime"] += tt
        bucket["calls"] += nc
        bucket["functions"] += 1
        total_tottime += tt
        total_calls += nc
    rows.sort(key=lambda row: (row[sort_key], row["file"], row["function"]), reverse=True)
    return {
        "sort": sort,
        "total_tottime": total_tottime,
        "total_calls": total_calls,
        "top": rows[:top],
        "subsystems": subsystems,
    }


def format_subsystems(data: dict) -> str:
    """Render the per-subsystem rollup as an aligned text table."""
    total = data["total_tottime"] or 1.0
    lines = ["time by subsystem (tottime, so rows sum to the total):"]
    ordered = sorted(
        data["subsystems"].items(), key=lambda kv: kv[1]["tottime"], reverse=True
    )
    for name, bucket in ordered:
        lines.append(
            f"  {name:<12} {bucket['tottime']:8.3f}s "
            f"{100.0 * bucket['tottime'] / total:5.1f}%  "
            f"{bucket['calls']:>10} calls  {bucket['functions']:>4} functions"
        )
    lines.append(f"  {'total':<12} {data['total_tottime']:8.3f}s")
    return "\n".join(lines)

"""Simulator profiling: the runs behind ``python -m repro profile``.

Two targets exercise the simulator's two hot paths:

* ``litmus`` — the litmus suite under a BulkSC configuration with
  4-instruction chunks, so nearly every instruction pays the full
  arbitrate/grant/expand/ack pipeline;
* ``synthetic`` — one synthetic application at the paper's chunk size,
  dominated by the per-access path (cache, chunking, signatures).

:func:`profile_run` wraps either in :mod:`cProfile` and rolls ``tottime``
up per simulator subsystem.  :func:`run_litmus_cell` is the one-cell
runner the golden-digest tests share.  Wall-clock throughput is
measured by ``perfbench/``, not here.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.params import NAMED_CONFIGS, SystemConfig
from repro.replay.workload import LITMUS_STAGGERS, build_workload, litmus_spec
from repro.system import run_workload


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

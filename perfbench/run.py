#!/usr/bin/env python3
"""The BulkSC benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {paper,commit_storm,service}
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Each round runs in a fresh process (``workloads.py``).  With ``--trace 0``
the command runs set-up-only probes and then rounds until ``--seconds``
have passed (at least one), and prints every end-to-end metric of
``BENCHMARK.json`` as the median and IQR over the rounds.  Host times are
scaled to the reference host speed by calibrations timed beside the work
(``hostspeed.py``); the unscaled medians are printed too.  With
``--trace 1`` it runs one untraced and one traced round and prints every
per-layer metric; the spans go to ``.perfbench_out/``.  The last line of
standard output is always the JSON result object.

Correctness: every run's digest of deterministic stats and registers is
compared with ``pins.json`` when the seed is pinned there, and with the
run's other rounds either way; ``commit_storm`` runs must be SC-certified
without a typed error, and ``service`` must certify with zero takeovers
and no errored transaction.

``--pin`` records the digests the run observed as the pins for its seed
(after a change that is meant to alter simulated behaviour).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from hostspeed import REF_CAL_S, calibrate, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")
PINS = os.path.join(HERE, "pins.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("paper", "commit_storm", "service")
#: Set-up-only processes per timed run, on top of each round's own set-up.
SETUP_PROBES = {"paper": 4, "commit_storm": 2, "service": 0}
#: Every process of one invocation must be done by then (the contract
#: allows 180 s).
BUDGET_S = 170.0


class RoundError(RuntimeError):
    """A worker process failed, timed out, or printed no result."""


def spawn(workload: str, seed: int, size: str, deadline: float,
          setup_only: bool = False, trace_out: Optional[str] = None) -> dict:
    """Run one worker process and return its result, plus ``setup_s``.

    Set-up time is scaled to the reference speed by a calibration here,
    just before the spawn, and the worker's own one just after its set-up.
    """
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--size", size]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cal_before = calibrate()
    spawned_at = time.monotonic()
    # A session of its own, so a timeout can take down the worker and any
    # service processes it started in one signal.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundError(f"{workload} round timed out") from None
    finally:
        # Anything the worker left running (a server of a failed cluster).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(
            f"{workload} worker exited {proc.returncode}:\n{err[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["raw_setup_s"] = result["ready_at"] - spawned_at
    result["setup_s"] = scaled(result["raw_setup_s"], cal_before, result["ready_cal_s"])
    return result


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------

def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(expected: List[str], result: dict) -> List[str]:
    """Labels of the runs whose digest differs from ``expected``."""
    observed, labels = result["digests"], result["labels"]
    differing = [label for label, a, b in zip(labels, expected, observed) if a != b]
    if len(expected) != len(observed):
        differing.append(f"{len(observed)} runs where {len(expected)} were expected")
    return differing


def check_round(workload: str, seed: int, size: str, result: dict,
                reference: Optional[dict], pins: dict) -> str:
    """Count digest mismatches into ``result["failed_units"]``; say against what."""
    if workload == "service":
        return "certification only (no digest)"
    pin = pins.get(workload, {}).get(str(seed)) if size == "full" else None
    if pin is not None:
        expected, status = pin, "pinned"
    elif reference is not None:
        expected, status = reference, "no pin; matched against this run's first round"
    else:
        return "no pin"
    differing = mismatches(expected["digests"], result)
    if not differing and expected.get("artifact_digest") != result.get("artifact_digest"):
        differing = ["artifact data"]
    if differing:
        result["failed_units"] += len(differing)
        result.setdefault("errors", []).append(
            f"{len(differing)} digest mismatch(es) ({status}): {', '.join(differing[:4])}"
        )
    return status


def pin_entry(result: dict) -> dict:
    entry = {"digests": result["digests"]}
    if "artifact_digest" in result:
        entry["artifact_digest"] = result["artifact_digest"]
    return entry


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(rounds: List[dict], setups: List[dict]) -> Dict[str, List[float]]:
    """Samples of every end-to-end metric, pooled over the rounds.

    ``latency_p50_ms`` has one sample: the median of every request of the
    run (a simulator round is one request; a service run has ≈2400 txns).
    """
    return {
        "wall_s": [x for r in rounds for x in r["wall_samples_s"]],
        "sim_instr_per_s": [x for r in rounds for x in r["instr_per_s"]],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "txn_per_s": [x for r in rounds for x in r["txn_per_s"]],
        "latency_p50_ms": [
            percentile([x for r in rounds for x in r["latencies_s"]], 0.50) * 1e3
        ],
    }


def host_line() -> str:
    return (f"host: {platform.platform()} | {platform.machine()} | "
            f"{os.cpu_count()} cpus | python {platform.python_version()}")


def name_mismatch(declared: List[dict], values: Dict[str, float]) -> Optional[str]:
    """Why the computed metric names differ from BENCHMARK.json, if they do."""
    names = {m["name"] for m in declared}
    if names == set(values):
        return None
    return (f"metric names differ from BENCHMARK.json: missing "
            f"{sorted(names - set(values))}, undeclared {sorted(set(values) - names)}")


def emit(declared: List[dict], values: Dict[str, float], attempted: int,
         failed: int, correct: bool) -> None:
    problem = name_mismatch(declared, values)
    if problem:
        raise SystemExit(problem)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def timed_run(workload: str, seed: int, seconds: float, size: str,
              probes: int, pins: dict):
    started = time.monotonic()
    deadline = started + BUDGET_S
    setups = [spawn(workload, seed, size, deadline, setup_only=True) for _ in range(probes)]
    rounds: List[dict] = []
    statuses = set()
    while True:
        round_started = time.monotonic()
        result = spawn(workload, seed, size, deadline)
        statuses.add(check_round(workload, seed, size, result,
                                 rounds[0] if rounds else None, pins))
        rounds.append(result)
        setups.append(result)
        now = time.monotonic()
        if now - started >= seconds or now + (now - round_started) > deadline:
            break
    return rounds, setups, statuses


def report_timed(workload: str, declared: List[dict], rounds: List[dict],
                 setups: List[dict], statuses) -> Dict[str, float]:
    samples = end_to_end(rounds, setups)
    units = {m["name"]: m["unit"] for m in declared}
    n_lat = sum(len(r["latencies_s"]) for r in rounds)
    print(f"workload {workload}: {len(rounds)} round(s), {len(setups)} set-ups")
    print(host_line())
    print(f"{'metric':<16}{'unit':>9}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}  n")
    values = {}
    for name, vals in samples.items():
        q1, med, q3 = quartiles(vals)
        n = n_lat if name.startswith("latency") else len(vals)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<16}{units.get(name, '?'):>9}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.3f}  {n}")
        values[name] = med
    raw_wall = statistics.median(r["raw_wall_s"] for r in rounds)
    raw_setup = statistics.median(s["raw_setup_s"] for s in setups)
    cal = statistics.median(r["ready_cal_s"] for r in setups)
    print(f"unscaled: wall_s {raw_wall:.6g} s, setup_s {raw_setup:.6g} s; calibration "
          f"{cal * 1e3:.4g} ms (reference {REF_CAL_S * 1e3:.4g} ms), "
          f"{sum(r['calibrations'] for r in rounds)} in the rounds")
    attempted = sum(r["units"] for r in rounds)
    failed = sum(r["failed_units"] for r in rounds)
    print(f"failed_frac      ratio {failed / attempted if attempted else 0.0:.6g}"
          f"  ({failed} of {attempted})")
    print(f"digest check: {'; '.join(sorted(statuses))}")
    for r in rounds:
        for error in r.get("errors", []):
            print(f"  error: {error}")
    return values


def trace_run(workload: str, seed: int, size: str, pins: dict):
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    plain = spawn(workload, seed, size, deadline)
    status = check_round(workload, seed, size, plain, None, pins)
    # One file per workload: a traced paper round writes ~70 MB of spans.
    trace_out = os.path.join(OUT_DIR, f"spans-{workload}.json")
    traced = spawn(workload, seed, size, deadline, trace_out=trace_out)
    check_round(workload, seed, size, traced, plain, pins)
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return [plain, traced], layers, status, trace_out


def report_traced(workload: str, declared: List[dict], rounds: List[dict],
                  layers: Dict[str, float], status: str, trace_out: str) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    print(f"workload {workload}: traced run (spans in {os.path.relpath(trace_out, ROOT)})")
    print(host_line())
    for name in sorted(layers):
        print(f"{name:<40}{units.get(name, '?'):>7}  {layers[name]:.6g}")
    wall = rounds[1]["traced_wall_s"]
    attributed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    print(f"reconciliation: sum(self_s) {attributed:.6g} s + unattributed "
          f"{layers['trace.unattributed_frac'] * wall:.6g} s = traced wall {wall:.6g} s")
    print(f"digest check: {status} (traced round checked against the untraced one)")
    for r in rounds:
        for error in r.get("errors", []):
            print(f"  error: {error}")


def run_once(args, spec: dict, pins: dict, size: str = "full", probes=None):
    """One invocation of the command; returns (values, attempted, failed, rounds)."""
    if args.trace:
        rounds, layers, status, trace_out = trace_run(args.workload, args.seed, size, pins)
        report_traced(args.workload, spec["per_layer"], rounds, layers, status, trace_out)
        values = layers
    else:
        rounds, setups, statuses = timed_run(
            args.workload, args.seed, args.seconds, size,
            SETUP_PROBES[args.workload] if probes is None else probes, pins)
        values = report_timed(args.workload, spec["end_to_end"], rounds, setups, statuses)
    attempted = sum(r["units"] for r in rounds)
    failed = sum(r["failed_units"] for r in rounds)
    return values, attempted, failed, rounds


def smoke(spec: dict) -> int:
    """Run every workload tiny, untraced and traced, and check the output."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=0, seconds=0, trace=trace)
            declared = spec["per_layer" if trace else "end_to_end"]
            values, attempted, failed, rounds = run_once(args, spec, {}, "smoke", probes=1)
            problem = name_mismatch(declared, values)
            if problem:
                problems.append(f"{workload} trace={trace}: {problem}")
            if failed or not attempted:
                problems.append(f"{workload} trace={trace}: {failed}/{attempted} failed")
            if trace:
                wall = rounds[1]["traced_wall_s"]
                attributed = sum(v for k, v in values.items() if k.endswith(".self_s"))
                total = attributed + values["trace.unattributed_frac"] * wall
                if abs(total - wall) > 1e-9 * max(1.0, wall):
                    problems.append(f"{workload}: self times add to {total}, wall {wall}")
                if values["trace.unattributed_frac"] < 0:
                    problems.append(f"{workload}: self times exceed the traced wall")
    for problem in problems:
        print(f"SMOKE FAIL: {problem}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: every workload tiny, untraced and traced")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests as the pins for --seed")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no simulator sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    pins = load_pins()
    # Re-pinning follows a change meant to alter the digests, so the old
    # pins of this workload are not held against the run.
    checked = {k: v for k, v in pins.items() if k != args.workload} if args.pin else pins
    try:
        values, attempted, failed, rounds = run_once(args, spec, checked)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.pin and args.workload != "service" and failed == 0:
        pins.setdefault(args.workload, {})[str(args.seed)] = pin_entry(rounds[0])
        with open(PINS, "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"pinned {args.workload} seed {args.seed}")
    emit(spec["per_layer" if args.trace else "end_to_end"], values, attempted,
         failed, failed == 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())

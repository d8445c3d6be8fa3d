"""Record/replay overhead: recording must stay cheap, replay bounded.

Measures, over the full litmus suite:

* **plain** — `run_workload` with no recorder attached;
* **record** — the same runs under `record_run` (recorder wrapping the
  chunk lifecycle, arbiter, commit engine, invalidation delivery);
* **replay** — `replay_trace` re-driving each recorded trace (a second
  full simulation plus stream/footer comparison).

`BENCH_replay.json` pins the baseline measured at seed time; the
assertions here bound the *ratios* (machine-independent), not absolute
wall times: recording a litmus run must cost less than 2.5× the plain
run, and a replay less than 3.5× (it re-runs and then compares).
"""

import time

from repro.replay.recorder import record_run, replay_cell
from repro.replay.replayer import replay_trace
from repro.replay.workload import build_workload, litmus_spec
from repro.params import NAMED_CONFIGS
from repro.system import run_workload
from repro.verify.litmus import all_litmus_tests

CONFIG_NAME = "BSCdypvt"
STAGGER = (1, 60)
REPEATS = 5


def _specs():
    return [litmus_spec(t.name, STAGGER) for t in all_litmus_tests()]


def _plain_pass(seed):
    config = NAMED_CONFIGS[CONFIG_NAME](seed=seed)
    for spec in _specs():
        programs, space, __ = build_workload(spec, config)
        run_workload(config, programs, space, record_history=True)


def _record_pass(seed):
    return [
        record_run(replay_cell(spec, CONFIG_NAME, seed))
        for spec in _specs()
    ]


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def test_record_and_replay_overhead(benchmark, bench_seed):
    plain_s = min(_timed(_plain_pass, bench_seed)[0] for __ in range(REPEATS))
    record_s, runs = min(
        (_timed(_record_pass, bench_seed) for __ in range(REPEATS)),
        key=lambda pair: pair[0],
    )

    def replay_all():
        for run in runs:
            result = replay_trace(run.trace)
            assert result.ok, result.describe()

    replay_s = min(_timed(replay_all)[0] for __ in range(REPEATS))
    benchmark.pedantic(replay_all, rounds=1, iterations=1)

    record_overhead = record_s / plain_s
    replay_overhead = replay_s / plain_s
    print()
    print(
        f"litmus suite ({len(runs)} tests, stagger {STAGGER}): "
        f"plain {plain_s * 1e3:.1f} ms | record {record_s * 1e3:.1f} ms "
        f"({record_overhead:.2f}x) | replay {replay_s * 1e3:.1f} ms "
        f"({replay_overhead:.2f}x)"
    )
    # Ratios, not wall times — see BENCH_replay.json for the seed
    # baseline on absolute numbers.
    assert record_overhead < 2.5, f"recording too expensive: {record_overhead:.2f}x"
    assert replay_overhead < 3.5, f"replay too expensive: {replay_overhead:.2f}x"

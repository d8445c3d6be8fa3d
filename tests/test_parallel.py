"""Parallel fan-out: determinism, memo-key hygiene, and fallbacks.

The contract of ``--jobs N`` everywhere in the harness is *bit-identity*
with a serial run: fan-out may only change wall-clock, never a result,
a report, or an ordering.  These tests pin that, plus the SweepRunner
memoization-key regression (a cached result must never be served after
the runner's parameters changed), plus the supervision contract the
campaign runner depends on: dead workers are retried with backoff,
livelocked cells are killed at their wall-clock budget, and both surface
as typed errors (or in-slot :class:`CellFailure` sentinels) rather than
hangs.
"""

import dataclasses
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import CellTimeoutError, WorkerCrashError
from repro.harness.parallel import (
    CellFailure,
    default_jobs,
    fork_available,
    parallel_map,
)
from repro.harness.runner import SweepRunner, memo_key
from repro.harness.sweeps import sweep_parameter

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestParallelMap:
    def test_serial_matches_plain_loop(self):
        assert parallel_map(lambda x: x * x, [3, 1, 2], jobs=1) == [9, 1, 4]

    @needs_fork
    def test_parallel_preserves_item_order(self):
        items = list(range(20))
        assert parallel_map(lambda x: x * 2, items, jobs=4) == [
            x * 2 for x in items
        ]

    @needs_fork
    def test_closures_cross_the_pool(self):
        offset = 100  # captured by the closure, inherited at fork
        assert parallel_map(lambda x: x + offset, [1, 2, 3], jobs=2) == [
            101, 102, 103
        ]

    def test_empty_and_single_item(self):
        assert parallel_map(lambda x: x, [], jobs=4) == []
        assert parallel_map(lambda x: -x, [5], jobs=4) == [-5]

    def test_jobs_zero_means_auto(self):
        assert default_jobs() >= 1
        assert parallel_map(lambda x: x + 1, [1, 2], jobs=0) == [2, 3]


@needs_fork
class TestSupervision:
    """Dead workers, timeouts, and the typed-failure surface."""

    def test_worker_death_is_retried_to_success(self, tmp_path):
        marker = tmp_path / "attempts"

        def fragile(x):
            # Die (uncatchably) on the first two attempts, succeed after.
            attempts = len(marker.read_text()) if marker.exists() else 0
            marker.write_text("x" * (attempts + 1))
            if attempts < 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return x * 10

        assert parallel_map(fragile, [7], jobs=1, retries=3, backoff=0.01) == [70]
        assert marker.read_text() == "xxx"  # 2 deaths + 1 success

    def test_exhausted_retries_raise_worker_crash_error(self):
        def die(_):
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(WorkerCrashError, match="worker died"):
            parallel_map(die, [1], jobs=1, retries=1, backoff=0.01)

    def test_return_mode_yields_cell_failure_in_slot(self):
        def die_on_two(x):
            if x == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        out = parallel_map(
            die_on_two, [1, 2, 3], jobs=2, retries=1, backoff=0.01,
            failure_mode="return",
        )
        assert out[0] == 1 and out[2] == 3
        failure = out[1]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "crash"
        assert failure.attempts == 2  # original + 1 retry
        assert isinstance(failure.to_error(), WorkerCrashError)

    def test_timeout_kills_livelocked_cell(self):
        def cell(x):
            if x == 1:
                time.sleep(60)
            return x

        out = parallel_map(
            cell, [0, 1, 2], jobs=3, timeout=0.5, failure_mode="return"
        )
        assert out[0] == 0 and out[2] == 2
        failure = out[1]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "timeout"
        assert "wall-clock budget" in failure.error
        assert isinstance(failure.to_error(), CellTimeoutError)

    def test_timeout_raises_typed_error_in_raise_mode(self):
        with pytest.raises(CellTimeoutError):
            parallel_map(lambda _: time.sleep(60), [1], jobs=1, timeout=0.3)

    def test_cell_exceptions_propagate_not_retried(self, tmp_path):
        marker = tmp_path / "calls"

        def bad(x):
            marker.write_text(marker.read_text() + "x" if marker.exists() else "x")
            return 1 // x

        # A deterministic cell bug is not an infra failure: no retry,
        # the original exception type crosses back to the caller.
        with pytest.raises(ZeroDivisionError):
            parallel_map(bad, [0], jobs=1, retries=3, backoff=0.01)
        assert marker.read_text() == "x"


class TestMemoKeyStability:
    """The sweep memo key must be stable across process boundaries.

    Campaign resume hinges on this: a cell key computed before a crash
    must equal the key the resuming process computes for the same cell.
    """

    def test_memo_key_is_a_plain_value_tuple(self):
        key = memo_key("BSCdypvt", "barnes", 2000, 3, True)
        assert key == ("BSCdypvt", "barnes", 2000, 3, True)

    def test_memo_key_survives_pickle_round_trip(self):
        key = memo_key("BSCdypvt", "barnes", 2000, 3, True)
        assert pickle.loads(pickle.dumps(key)) == key

    def test_runner_method_agrees_with_module_function(self):
        runner = SweepRunner(2000, seed=3)
        assert runner.memo_key("BSCdypvt", "barnes") == memo_key(
            "BSCdypvt", "barnes", 2000, 3, False
        )

    def test_memo_key_stable_across_interpreter_runs(self):
        """A fresh interpreter computes the identical key (no per-process
        hash randomization or id()-dependence may leak in)."""
        program = (
            "import json;"
            "from repro.harness.runner import memo_key;"
            "print(json.dumps(memo_key('BSCdypvt', 'barnes', 2000, 3, True)))"
        )
        env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="1")
        out = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, check=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert tuple(json.loads(out.stdout)) == memo_key(
            "BSCdypvt", "barnes", 2000, 3, True
        )


class TestSweepRunnerMemoKey:
    """Regression: the cache key must cover every run parameter."""

    def test_mutated_seed_does_not_serve_stale_result(self):
        runner = SweepRunner(1000, seed=0)
        first = runner.result("BSCdypvt", "barnes")
        runner.seed = 1
        second = runner.result("BSCdypvt", "barnes")
        assert first is not second
        assert first.config.seed == 0
        assert second.config.seed == 1

    def test_mutated_instructions_does_not_serve_stale_result(self):
        runner = SweepRunner(1000, seed=0)
        first = runner.result("BSCdypvt", "barnes")
        runner.instructions_per_thread = 2000
        second = runner.result("BSCdypvt", "barnes")
        assert first is not second
        assert runner.cached_count() == 2
        # Both parameterizations stay cached under their own keys.
        runner.instructions_per_thread = 1000
        assert runner.result("BSCdypvt", "barnes") is first

    def test_mutated_record_history_does_not_serve_stale_result(self):
        runner = SweepRunner(1000, seed=0, record_history=False)
        first = runner.result("BSCdypvt", "barnes")
        runner.record_history = True
        second = runner.result("BSCdypvt", "barnes")
        assert first is not second
        assert not first.history.enabled
        assert second.history.enabled

    def test_same_parameters_still_memoized(self):
        runner = SweepRunner(1000, seed=0)
        assert runner.result("BSCdypvt", "barnes") is runner.result(
            "BSCdypvt", "barnes"
        )


@needs_fork
class TestParallelBitIdentity:
    def test_sweep_matches_serial(self):
        serial = SweepRunner(1500, seed=3, jobs=1).sweep(
            ["BSCdypvt", "RC"], ["barnes"]
        )
        fanned = SweepRunner(1500, seed=3, jobs=4).sweep(
            ["BSCdypvt", "RC"], ["barnes"]
        )
        assert list(serial) == list(fanned)
        for key in serial:
            assert serial[key].cycles == fanned[key].cycles
            assert serial[key].stats == fanned[key].stats
            assert serial[key].registers == fanned[key].registers
            assert serial[key].traffic_bytes == fanned[key].traffic_bytes
            # A runner caches plain data: no result keeps its machine.
            assert serial[key].machine is None
            assert fanned[key].machine is None

    def test_sweep_parameter_matches_serial(self):
        def run(jobs):
            return sweep_parameter(
                "chunk",
                [500, 1000],
                lambda cfg, v: cfg.with_bulksc(chunk_size_instructions=v),
                lambda r: r.cycles,
                ["barnes"],
                instructions=1200,
                jobs=jobs,
            )

        assert run(1).points == run(3).points

    def test_chaos_matches_serial(self):
        from repro.faults.chaos import run_chaos

        serial = run_chaos(seed=7, faults="drop,delay,dup", quick=True, jobs=1)
        fanned = run_chaos(seed=7, faults="drop,delay,dup", quick=True, jobs=4)
        assert len(serial.runs) == len(fanned.runs)
        for a, b in zip(serial.runs, fanned.runs):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_chaos_error_truncation_matches_serial(self):
        """Fan-out must stop the report at the first error, like serial."""
        from repro.faults.chaos import run_chaos

        serial = run_chaos(
            seed=7, faults="kill-acks", no_retry=True, quick=True, jobs=1
        )
        fanned = run_chaos(
            seed=7, faults="kill-acks", no_retry=True, quick=True, jobs=4
        )
        assert serial.first_error is not None
        assert len(serial.runs) == len(fanned.runs)
        assert serial.first_error == fanned.first_error
        assert [f.__dict__ for f in serial.failure_trace] == [
            f.__dict__ for f in fanned.failure_trace
        ]


class TestRetryJitter:
    """The backoff jitter: deterministic, bounded, and outcome-neutral."""

    def test_jitter_schedule_is_deterministic_per_cell_and_attempt(self):
        import random as _random

        def draw(index, attempt):
            rng = _random.Random((index + 1) * 1_000_003 + attempt)
            return 1.0 + 0.5 * rng.random()

        # Same (cell, attempt) -> same factor; schedules replay exactly.
        assert draw(3, 1) == draw(3, 1)
        # Different cells (and attempts) de-synchronise: a shard that
        # kills several workers at once must not re-fork them in
        # lockstep.
        factors = {draw(i, 1) for i in range(8)} | {draw(0, a) for a in (1, 2, 3)}
        assert len(factors) > 1
        # Every factor stays within the documented [1.0, 1.5) band, so
        # the jittered delay never undercuts the base exponential.
        for index in range(8):
            for attempt in (1, 2, 3):
                assert 1.0 <= draw(index, attempt) < 1.5

    @needs_fork
    def test_jittered_retry_still_waits_at_least_the_base_backoff(self, tmp_path):
        marker = tmp_path / "attempts"

        def fragile(x):
            attempts = len(marker.read_text()) if marker.exists() else 0
            marker.write_text("x" * (attempts + 1))
            if attempts < 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return x + 1

        start = time.monotonic()
        assert parallel_map(fragile, [1], jobs=1, retries=2, backoff=0.05) == [2]
        elapsed = time.monotonic() - start
        # One retry: delay is backoff * jitter with jitter >= 1.0.
        assert elapsed >= 0.05

"""Failure minimization tests: ddmin over fault schedules + thread dropping."""

import pytest

from repro.replay.minimizer import MinimizeError, minimize_trace
from repro.campaign.spec import FaultVariant
from repro.replay.recorder import record_run, replay_cell
from repro.replay.replayer import replay_trace
from repro.replay.schema import read_trace, write_trace
from repro.replay.workload import litmus_spec


def multi_fault_failure():
    """MP under drop,delay,dup with retries off fails after several faults.

    Seed 6 is a known-good pick: the run injects 4 faults before dying,
    so minimization has real work to do (see test below).
    """
    run = record_run(
        replay_cell(
            litmus_spec("MP", (1, 60)),
            seed=6,
            fault=FaultVariant("drop,delay,dup", no_retry=True),
        )
    )
    assert run.failed and run.error is not None
    assert len(run.trace.fault_records) >= 3
    return run


class TestMinimize:
    def test_minimize_is_strictly_smaller(self):
        run = multi_fault_failure()
        result = minimize_trace(run.trace, budget=150)
        assert result.strictly_smaller, result.describe()
        assert result.minimized_faults < result.original_faults
        # The minimized repro still fails with the same error class.
        assert result.error is not None
        assert result.error.split(":")[0] == run.error.split(":")[0]

    def test_minimized_trace_replays(self, tmp_path):
        run = multi_fault_failure()
        result = minimize_trace(run.trace, budget=150)
        path = str(tmp_path / "min.jsonl")
        write_trace(result.trace, path)
        replay = replay_trace(read_trace(path))
        assert replay.ok, replay.describe()
        assert replay.replayed.error == result.error

    def test_minimized_trace_is_scripted(self):
        """The minimized header pins faults explicitly — no randomness left."""
        run = multi_fault_failure()
        result = minimize_trace(run.trace, budget=150)
        header = result.trace.header
        assert header["kind"] == "minimized"
        assert header["fault_script"] is not None
        assert not (header.get("faults") or {}).get("spelling")
        scripted = sum(
            len(entries) for entries in header["fault_script"].values()
        )
        assert scripted == result.minimized_faults

    def test_single_fault_failure_minimizes_to_itself(self):
        run = record_run(
            replay_cell(
                litmus_spec("SB", (1, 1)),
                seed=0,
                fault=FaultVariant("kill-acks", no_retry=True),
            )
        )
        assert run.failed
        result = minimize_trace(run.trace, budget=100)
        assert result.minimized_faults == 1
        assert result.error is not None

    def test_passing_trace_rejected(self):
        run = record_run(replay_cell(litmus_spec("SB", (1, 1)), seed=0))
        assert not run.failed
        with pytest.raises(MinimizeError, match="passing run"):
            minimize_trace(run.trace)

    def test_budget_is_respected(self):
        run = multi_fault_failure()
        result = minimize_trace(run.trace, budget=3)
        assert result.runs_tested <= 3 + 2  # baseline + final re-record

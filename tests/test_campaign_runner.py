"""The campaign runner: end-to-end execution, checkpointed shards,
resume semantics, infra-failure accounting, failure minimization, and
the exit-code contract over aggregate reports."""

import json
import os
import shutil
import time

import pytest

from repro.campaign.queue import cells_by_key, expand_cells
from repro.campaign.report import (
    aggregate_report,
    report_exit_code,
    status_payload,
)
from repro.campaign.runner import (
    RunnerOptions,
    _infra_outcome,
    execute_cell,
    run_campaign,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.harness.parallel import CellFailure


def make_spec(**kwargs) -> CampaignSpec:
    defaults = dict(
        name="runner-test",
        configs=["BSCdypvt"],
        workload_args=["litmus:SB"],
        seeds="0:2",
    )
    defaults.update(kwargs)
    return CampaignSpec.build(**defaults)


def queue_for(spec: CampaignSpec):
    cells = expand_cells(spec)
    unique = cells_by_key(cells)
    return [c for c in cells if unique[c.key] is c]


class TestExecuteCell:
    def test_certified_cell_outcome(self):
        cell = queue_for(make_spec())[0]
        outcome = execute_cell(cell)
        assert outcome["status"] == "ok"
        assert outcome["key"] == cell.key
        assert outcome["cycles"] > 0
        assert outcome["error"] is None

    def test_typed_failure_becomes_error_status(self):
        spec = make_spec(fault_args=["kill-acks!"])
        cell = queue_for(spec)[0]
        outcome = execute_cell(cell)
        assert outcome["status"] == "error"
        assert outcome["error"].startswith("FaultInducedError")

    def test_errored_cell_reports_its_fired_crash(self):
        spec = make_spec(
            workload_args=["litmus:MP"],
            fault_args=["drop,delay,dup@0.3!+grant:1:arbiter0"],
        )
        outcome = execute_cell(queue_for(spec)[0])
        assert outcome["status"] == "error"
        assert outcome["crashes"] == 1

    def test_outcome_is_deterministic(self):
        cell = queue_for(make_spec(fault_args=["drop,delay,dup"]))[0]
        assert execute_cell(cell) == execute_cell(cell)

    def test_infra_outcome_shapes(self):
        cell = queue_for(make_spec())[0]
        crash = CellFailure(0, "crash", "worker died", attempts=3, elapsed=1.0)
        timeout = CellFailure(0, "timeout", "budget", attempts=1, elapsed=9.9)
        assert _infra_outcome(cell, crash)["status"] == "worker-crash"
        assert _infra_outcome(cell, crash)["attempts"] == 3
        assert _infra_outcome(cell, timeout)["status"] == "timeout"


class TestRunCampaign:
    def test_small_campaign_certifies(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), make_spec())
        payload = run_campaign(store, RunnerOptions(jobs=1))
        assert payload["all_certified"] is True
        assert payload["certified"] == payload["cells"] == 4
        assert payload["missing"] == 0
        assert report_exit_code(payload) == 0
        assert store.read_report() == payload

    def test_resume_of_complete_campaign_is_a_no_op(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), make_spec())
        first = run_campaign(store, RunnerOptions(jobs=1))
        results_before = len(store.load().results)
        second = run_campaign(store, RunnerOptions(jobs=1))
        assert second == first
        assert len(store.load().results) == results_before  # nothing re-ran
        assert len(store.load().sessions) == 2  # but the session was logged

    def test_interrupted_campaign_resumes_bit_identical(self, tmp_path):
        """Truncate a finished store's log mid-shard (as kill -9 would
        leave it), resume, and require the byte-identical report."""
        spec = make_spec(seeds="0:6", fault_args=["none", "drop@0.3"])
        full_dir, cut_dir = str(tmp_path / "full"), str(tmp_path / "cut")
        full = CampaignStore.create(full_dir, spec)
        run_campaign(full, RunnerOptions(jobs=1, shard_size=4))

        shutil.copytree(full_dir, cut_dir)
        os.remove(os.path.join(cut_dir, "report.json"))
        with open(os.path.join(cut_dir, "log.jsonl")) as handle:
            lines = handle.readlines()
        # Keep roughly half the log and add a torn tail line.
        keep = lines[: len(lines) // 2]
        with open(os.path.join(cut_dir, "log.jsonl"), "w") as handle:
            handle.writelines(keep)
            handle.write('{"type": "result", "key": "torn')
        cut = CampaignStore.open(cut_dir)
        assert len(cut.load().results) < len(full.load().results)

        payload = run_campaign(cut, RunnerOptions(jobs=1, shard_size=4))
        with open(os.path.join(full_dir, "report.json"), "rb") as handle:
            full_bytes = handle.read()
        with open(os.path.join(cut_dir, "report.json"), "rb") as handle:
            cut_bytes = handle.read()
        assert cut_bytes == full_bytes
        assert payload == full.read_report()

    def test_in_flight_cells_are_requeued(self, tmp_path):
        spec = make_spec()
        store = CampaignStore.create(str(tmp_path / "c"), spec)
        cells = queue_for(spec)
        # A claim with no results: the shard was dispatched, then kill -9.
        store.append(
            {"type": "claim", "shard": 0, "keys": [cells[0].key]}
        )
        messages = []
        payload = run_campaign(
            store, RunnerOptions(jobs=1), progress=messages.append
        )
        assert payload["all_certified"] is True
        assert any("re-queued in-flight" in m for m in messages)

    def test_failing_cells_are_minimized_into_traces(self, tmp_path):
        spec = make_spec(fault_args=["kill-acks!"], seeds="0:1")
        store = CampaignStore.create(str(tmp_path / "c"), spec)
        payload = run_campaign(
            store, RunnerOptions(jobs=1, minimize=True, max_minimize=1)
        )
        assert payload["counts"]["error"] == 2
        assert report_exit_code(payload) == 3
        state = store.load()
        keys = {t["key"] for t in state.traces}
        assert keys  # at least one failing cell was recorded
        key = next(iter(keys))
        assert os.path.exists(store.trace_path(key))
        assert os.path.exists(store.trace_path(key, minimized=True))

    def test_minimize_off_leaves_no_traces(self, tmp_path):
        spec = make_spec(fault_args=["kill-acks!"], seeds="0:1")
        store = CampaignStore.create(str(tmp_path / "c"), spec)
        run_campaign(store, RunnerOptions(jobs=1, minimize=False))
        assert not store.load().traces


class TestReportContract:
    def payload(self, **overrides):
        spec = make_spec()
        cells = queue_for(spec)
        outcomes = {c.key: execute_cell(c) for c in cells}
        for key, patch in overrides.items():
            outcomes[cells[int(key)].key].update(patch)
        return aggregate_report(spec, cells, outcomes)

    def test_exit_zero_when_all_certified(self):
        assert report_exit_code(self.payload()) == 0

    def test_sc_violation_wins_exit_one(self):
        payload = self.payload(**{"0": {"status": "sc-violation"}})
        assert report_exit_code(payload) == 1
        assert payload["first_failure"]["status"] == "sc-violation"

    def test_livelock_and_unrecovered_exit_codes(self):
        livelock = self.payload(
            **{"0": {"status": "error", "error": "LivelockError: stuck"}}
        )
        assert report_exit_code(livelock) == 4
        unrecovered = self.payload(
            **{"0": {"status": "error", "error": "RecoveryError: lost"}}
        )
        assert report_exit_code(unrecovered) == 5

    def test_infra_failures_exit_three(self):
        assert report_exit_code(
            self.payload(**{"0": {"status": "timeout"}})
        ) == 3
        assert report_exit_code(
            self.payload(**{"0": {"status": "worker-crash"}})
        ) == 3

    def test_missing_cells_exit_six(self):
        spec = make_spec()
        cells = queue_for(spec)
        payload = aggregate_report(spec, cells, {})
        assert payload["missing"] == len(cells)
        assert report_exit_code(payload) == 6

    def test_aggregate_ignores_wall_clock_fields(self):
        """Two aggregations of the same outcomes with different elapsed
        bookkeeping must be identical — resume bit-identity depends on
        aggregates never reading wall-clock fields."""
        spec = make_spec()
        cells = queue_for(spec)
        outcomes = {c.key: execute_cell(c) for c in cells}
        first = aggregate_report(spec, cells, outcomes)
        decorated = {
            k: dict(o, elapsed=123.4, ts=999.9) for k, o in outcomes.items()
        }
        assert aggregate_report(spec, cells, decorated) == first

    def test_report_is_json_stable(self):
        payload = self.payload()
        canon = json.dumps(payload, sort_keys=True)
        assert json.loads(canon) == payload


class TestStatus:
    def test_status_of_partial_store(self, tmp_path):
        spec = make_spec(seeds="0:4")
        store = CampaignStore.create(str(tmp_path / "c"), spec)
        cells = queue_for(spec)
        store.log_session("run", jobs=1)
        store.append(
            {"type": "claim", "shard": 0, "keys": [c.key for c in cells[:3]]}
        )
        store.append_many(
            [
                {
                    "type": "result",
                    "key": c.key,
                    "name": c.name,
                    "outcome": execute_cell(c),
                    "elapsed": 0.01,
                }
                for c in cells[:2]
            ]
        )
        payload = status_payload(store, cells)
        assert payload["cells"] == 8
        assert payload["done"] == 2
        assert payload["in_flight"] == 1
        assert payload["remaining"] == 6
        assert payload["complete"] is False
        assert payload["counts"] == {"ok": 2}
        assert payload["eta_seconds"] is None or payload["eta_seconds"] >= 0

    def test_status_of_complete_store(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), make_spec())
        run_campaign(store, RunnerOptions(jobs=1))
        payload = status_payload(store, queue_for(make_spec()))
        assert payload["complete"] is True
        assert payload["failures"] == 0 and payload["infra_failures"] == 0


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="fork start method unavailable",
)
class TestParallelBitIdentity:
    def test_jobs_do_not_change_the_report(self, tmp_path):
        spec = make_spec(seeds="0:4", fault_args=["none", "drop@0.2"])
        serial = CampaignStore.create(str(tmp_path / "s"), spec)
        fanned = CampaignStore.create(str(tmp_path / "f"), spec)
        a = run_campaign(serial, RunnerOptions(jobs=1, shard_size=5))
        b = run_campaign(fanned, RunnerOptions(jobs=4, shard_size=3))
        assert a == b


class TestOverhead:
    def test_durability_is_cheap(self, tmp_path):
        """A durable campaign costs < 1.8x raw execute_cell calls; a resume
        of the finished store costs < 15% of them.

        The same litmus grid runs as a raw serial loop and as a full
        run_campaign over an on-disk store (fsyncs amortize over the shard
        size).  Best of 3 each; the bounds are machine-independent ratios.
        """
        spec = make_spec(workload_args=["litmus"], seeds="0:8")

        def timed(fn, *args):
            start = time.perf_counter()
            result = fn(*args)
            return time.perf_counter() - start, result

        def raw_pass():
            for cell in queue_for(spec):
                execute_cell(cell)

        raw_s = min(timed(raw_pass)[0] for __ in range(3))
        campaign_s = resume_s = float("inf")
        for attempt in range(3):
            store = CampaignStore.create(str(tmp_path / f"store{attempt}"), spec)
            elapsed, payload = timed(
                run_campaign, store, RunnerOptions(jobs=1, shard_size=32, minimize=False)
            )
            campaign_s = min(campaign_s, elapsed)
            assert payload["all_certified"], payload
            # Resume of a complete store: log replay + aggregate only.
            store = CampaignStore.open(str(tmp_path / f"store{attempt}"))
            elapsed, __ = timed(run_campaign, store, RunnerOptions(jobs=1, minimize=False))
            resume_s = min(resume_s, elapsed)

        overhead = campaign_s / raw_s
        assert overhead < 1.8, (
            f"campaign durability overhead {overhead:.2f}x exceeds the 1.8x "
            f"budget (raw {raw_s:.2f}s vs campaign {campaign_s:.2f}s)"
        )
        assert resume_s < 0.15 * raw_s, (
            f"no-op resume took {resume_s:.2f}s — more than 15% of the raw "
            f"pass ({raw_s:.2f}s); log replay or aggregation regressed"
        )

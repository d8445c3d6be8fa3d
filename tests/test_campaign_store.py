"""The campaign store's durability contract: append-only log recovery,
torn-tail tolerance, first-write-wins results, and atomic spec/report
writes."""

import json
import os

import pytest

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.errors import CampaignError


def small_spec() -> CampaignSpec:
    return CampaignSpec.build(
        name="store-test", configs=["BSCdypvt"], workload_args=["litmus:SB"],
        seeds="0:2",
    )


def result_record(key: str, status: str = "ok") -> dict:
    return {
        "type": "result",
        "key": key,
        "name": f"cell-{key}",
        "outcome": {"key": key, "status": status},
        "elapsed": 0.0,
    }


class TestLifecycle:
    def test_create_open_round_trip(self, tmp_path):
        path = str(tmp_path / "c")
        store = CampaignStore.create(path, small_spec())
        assert os.path.isdir(store.traces_path)
        reopened = CampaignStore.open(path)
        assert reopened.spec == small_spec()

    def test_create_refuses_to_clobber(self, tmp_path):
        path = str(tmp_path / "c")
        CampaignStore.create(path, small_spec())
        with pytest.raises(CampaignError, match="campaign resume"):
            CampaignStore.create(path, small_spec())

    def test_open_missing_store_is_typed(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign store"):
            CampaignStore.open(str(tmp_path / "nowhere"))

    def test_open_corrupt_spec_is_typed(self, tmp_path):
        path = str(tmp_path / "c")
        CampaignStore.create(path, small_spec())
        with open(os.path.join(path, "campaign.json"), "w") as handle:
            handle.write("{ not json")
        with pytest.raises(CampaignError, match="corrupt campaign.json"):
            CampaignStore.open(path)

    def test_attach_makes_a_trace_only_store(self, tmp_path):
        store = CampaignStore.attach(str(tmp_path / "traces-only"))
        assert store.spec is None
        assert os.path.isdir(store.traces_path)
        # Attaching to a real campaign opens it instead.
        path = str(tmp_path / "real")
        CampaignStore.create(path, small_spec())
        assert CampaignStore.attach(path).spec == small_spec()


class TestLogRecovery:
    def test_round_trip_of_all_record_types(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        store.log_session("run", jobs=2)
        store.append({"type": "claim", "keys": ["k1", "k2"], "shard": 0})
        store.append_many([
            result_record("k1"),
            {"type": "checkpoint", "shard": 0, "cells": 1, "done": 1},
        ])
        state = store.load()
        assert state.done_keys == {"k1"}
        assert state.in_flight_keys == {"k2"}  # claimed, never resolved
        assert len(state.checkpoints) == 1
        assert len(state.sessions) == 1
        assert not state.torn_tail
        assert state.outcome("k1")["status"] == "ok"
        assert state.outcome("k2") is None

    def test_first_write_wins_for_results(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        store.append(result_record("k1", status="ok"))
        store.append(result_record("k1", status="error"))
        assert store.load().outcome("k1")["status"] == "ok"

    def test_torn_tail_is_tolerated(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        store.append({"type": "claim", "keys": ["k1"], "shard": 0})
        store.append(result_record("k1"))
        with open(store.log_path, "a") as handle:
            handle.write('{"type": "result", "key": "k2", "outco')  # kill -9
        state = store.load()
        assert state.torn_tail
        assert state.done_keys == {"k1"}  # the torn record is dropped

    def test_trim_torn_tail_makes_the_log_appendable_again(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        store.append(result_record("k1"))
        with open(store.log_path, "a") as handle:
            handle.write('{"type": "result", "key": "k2", "outco')
        assert store.trim_torn_tail() is True
        # Appending after the trim must not bury a torn line mid-log.
        store.append(result_record("k3"))
        state = store.load()
        assert state.done_keys == {"k1", "k3"}
        assert not state.torn_tail

    def test_trim_torn_tail_is_a_no_op_on_clean_logs(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        assert store.trim_torn_tail() is False  # no log yet
        store.append(result_record("k1"))
        assert store.trim_torn_tail() is False
        assert store.load().done_keys == {"k1"}

    def test_trim_drops_an_unterminated_but_valid_line(self, tmp_path):
        # Kill between the content write and the newline: the record is
        # complete JSON but unterminated — the next append would glue
        # onto it.  Drop it; its claim stands and the cell re-runs.
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        store.append(result_record("k1"))
        with open(store.log_path, "a") as handle:
            handle.write(json.dumps(result_record("k2")))  # no newline
        assert store.trim_torn_tail() is True
        assert store.load().done_keys == {"k1"}

    def test_mid_log_corruption_refuses_to_guess(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        store.append(result_record("k1"))
        with open(store.log_path, "a") as handle:
            handle.write("garbage\n")
        store.append(result_record("k2"))
        with pytest.raises(CampaignError, match="not the tail"):
            store.load()

    def test_unknown_record_types_are_skipped(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        store.append({"type": "from-the-future", "payload": 1})
        store.append(result_record("k1"))
        assert store.load().done_keys == {"k1"}

    def test_empty_store_loads_empty(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        state = store.load()
        assert not state.results and not state.claimed

    def test_batch_is_one_write(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        store.append_many([result_record(f"k{i}") for i in range(10)])
        with open(store.log_path) as handle:
            lines = handle.readlines()
        assert len(lines) == 10
        assert all(json.loads(line)["type"] == "result" for line in lines)


class TestReportAndTraces:
    def test_report_round_trip(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        assert store.read_report() is None
        store.save_report({"certified": 3})
        assert store.read_report() == {"certified": 3}
        store.save_report({"certified": 4})  # atomic rewrite
        assert store.read_report() == {"certified": 4}

    def test_save_trace_writes_file_and_log_record(self, tmp_path):
        from repro.replay.recorder import record_run, replay_cell

        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        recorded = record_run(
            replay_cell({"kind": "litmus", "test": "SB", "stagger": [1, 1]}, "BSCdypvt", 0)
        )
        path = store.save_trace(recorded.trace, "abc123")
        assert os.path.exists(path)
        assert path == store.trace_path("abc123")
        minimized_path = store.save_trace(recorded.trace, "abc123", minimized=True)
        assert minimized_path.endswith(".min.jsonl")
        traces = store.load().traces
        assert [t["key"] for t in traces] == ["abc123", "abc123"]
        assert [t["minimized"] for t in traces] == [False, True]
        # Paths in the log are store-relative (the store directory moves).
        assert traces[0]["path"] == os.path.join("traces", "abc123.jsonl")


class TestClaimLeases:
    """Advisory wall-clock leases on shard claims (stale-claim detection)."""

    def test_lease_expiry_recovered_from_log(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        store.append(
            {"type": "claim", "shard": 0, "keys": ["k1", "k2"],
             "ts": 100.0, "lease_expires_ts": 1000.0}
        )
        state = store.load()
        assert state.claim_expiry == {"k1": 1000.0, "k2": 1000.0}
        assert state.in_flight_keys == {"k1", "k2"}

    def test_reclaim_refreshes_the_lease(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        store.append(
            {"type": "claim", "shard": 0, "keys": ["k1"],
             "ts": 100.0, "lease_expires_ts": 1000.0}
        )
        store.append(
            {"type": "claim", "shard": 1, "keys": ["k1"],
             "ts": 2000.0, "lease_expires_ts": 3000.0}
        )
        assert store.load().claim_expiry["k1"] == 3000.0

    def test_old_claims_without_lease_still_load(self, tmp_path):
        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        store.append({"type": "claim", "shard": 0, "keys": ["k1"], "ts": 1.0})
        state = store.load()
        assert state.in_flight_keys == {"k1"}
        assert state.claim_expiry == {}

    def test_status_flags_stale_in_flight_claims(self, tmp_path):
        import time

        from repro.campaign.queue import cells_by_key, expand_cells
        from repro.campaign.report import status_payload

        spec = small_spec()
        store = CampaignStore.create(str(tmp_path / "c"), spec)
        cells = expand_cells(spec)
        unique = cells_by_key(cells)
        queue_cells = [c for c in cells if unique[c.key] is c]
        assert len(queue_cells) >= 2
        expired, live = queue_cells[0].key, queue_cells[1].key
        now = time.time()
        store.append(
            {"type": "claim", "shard": 0, "keys": [expired],
             "ts": now - 100, "lease_expires_ts": now - 10}
        )
        store.append(
            {"type": "claim", "shard": 1, "keys": [live],
             "ts": now, "lease_expires_ts": now + 900}
        )
        payload = status_payload(store, queue_cells)
        assert payload["in_flight"] == 2
        assert payload["stale_in_flight"] == 1

    def test_resolved_claims_are_not_stale(self, tmp_path):
        import time

        from repro.campaign.queue import cells_by_key, expand_cells
        from repro.campaign.report import status_payload

        spec = small_spec()
        store = CampaignStore.create(str(tmp_path / "c"), spec)
        cells = expand_cells(spec)
        unique = cells_by_key(cells)
        queue_cells = [c for c in cells if unique[c.key] is c]
        key = queue_cells[0].key
        now = time.time()
        store.append(
            {"type": "claim", "shard": 0, "keys": [key],
             "ts": now - 100, "lease_expires_ts": now - 10}
        )
        store.append(result_record(key))
        payload = status_payload(store, queue_cells)
        assert payload["stale_in_flight"] == 0

    def test_runner_stamps_leases_on_claims(self, tmp_path):
        from repro.campaign.runner import RunnerOptions, run_campaign

        store = CampaignStore.create(str(tmp_path / "c"), small_spec())
        run_campaign(
            store, RunnerOptions(jobs=1, minimize=False, claim_lease=123.0)
        )
        claims = [
            json.loads(line)
            for line in open(store.log_path, encoding="utf-8")
            if '"claim"' in line
        ]
        assert claims
        for claim in claims:
            assert claim["lease_expires_ts"] == pytest.approx(
                claim["ts"] + 123.0
            )

"""Tests for the ``python -m repro analyze contracts`` CLI."""

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.replay.recorder import record_run, replay_cell
from repro.replay.schema import write_trace
from repro.replay.workload import litmus_spec


@pytest.fixture(scope="module")
def clean_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("contracts-cli") / "sb.jsonl"
    recorded = record_run(replay_cell(litmus_spec("SB", stagger=()), seed=0))
    write_trace(recorded.trace, str(path))
    return str(path)


@pytest.fixture(scope="module")
def violating_trace(tmp_path_factory):
    """SB with its squash record dropped: a BDM under-reporting bug."""
    path = tmp_path_factory.mktemp("contracts-cli") / "sb-bad.jsonl"
    recorded = record_run(replay_cell(litmus_spec("SB", stagger=()), seed=0))
    trace = recorded.trace
    kept = [r for r in trace.records if r.ev != "chunk.squash"]
    renumbered = [
        dataclasses.replace(r, seq=i + 1) for i, r in enumerate(kept)
    ]
    tampered = dataclasses.replace(
        trace,
        records=renumbered,
        footer=dict(trace.footer, records=len(renumbered)),
    )
    write_trace(tampered, str(path))
    return str(path)


class TestExitCodes:
    def test_clean_trace_exit_0(self, clean_trace, capsys):
        assert main(["analyze", "contracts", clean_trace]) == 0
        out = capsys.readouterr().out
        assert "[ok ] arbiter" in out
        assert "agreement=agree" in out

    def test_violating_trace_exit_1(self, violating_trace, capsys):
        assert main(["analyze", "contracts", violating_trace]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] bdm" in out
        assert "conflicts-squashed" in out

    def test_no_input_is_usage_error(self, capsys):
        assert main(["analyze", "contracts"]) == 2

    def test_missing_trace_is_usage_error(self, capsys):
        assert main(["analyze", "contracts", "/nonexistent/t.jsonl"]) == 2

    def test_unknown_component_is_usage_error(self, capsys):
        code = main(
            ["analyze", "contracts", "--modelcheck", "--component", "bogus"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown component(s) bogus" in err
        assert "arbiter, bdm, dirbdm, network, recovery, composition" in err


class TestJson:
    def test_single_trace_payload(self, clean_trace, capsys):
        assert main(["analyze", "contracts", clean_trace, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == clean_trace
        assert payload["ok"] is True
        assert payload["failing"] == []
        assert {c["component"] for c in payload["components"]} == {
            "arbiter", "bdm", "dirbdm", "network", "recovery"
        }
        assert payload["composition"]["agreement"] == "agree"

    def test_multiple_traces_payload_list(
        self, clean_trace, violating_trace, capsys
    ):
        code = main(
            ["analyze", "contracts", clean_trace, violating_trace, "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert [p["ok"] for p in payload] == [True, False]
        assert payload[1]["failing"] == ["bdm"]

    def test_witnesses_localized_in_json(self, violating_trace, capsys):
        main(["analyze", "contracts", violating_trace, "--json"])
        payload = json.loads(capsys.readouterr().out)
        (bdm,) = [
            c for c in payload["components"] if c["component"] == "bdm"
        ]
        witnesses = [
            w for clause in bdm["clauses"] for w in clause["witnesses"]
        ]
        assert witnesses
        assert all(w["component"] == "bdm" for w in witnesses)
        assert all(w["events"] for w in witnesses)


class TestComponentFilter:
    def test_filter_skips_other_components(self, violating_trace, capsys):
        code = main(
            ["analyze", "contracts", violating_trace,
             "--component", "arbiter"]
        )
        # The BDM bug is invisible to the arbiter contract.
        assert code == 0
        out = capsys.readouterr().out
        assert "bdm" not in out

    def test_filter_sees_own_component(self, violating_trace, capsys):
        code = main(
            ["analyze", "contracts", violating_trace, "--component", "bdm"]
        )
        assert code == 1


class TestModelcheckFlag:
    def test_modelcheck_without_traces(self, capsys):
        # The full bounded search over real runs: every clause active,
        # no violation, every seeded mutation caught by its owner.
        code = main(["analyze", "contracts", "--modelcheck", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        result = payload["modelcheck"]
        assert result["ok"], result["problems"]
        assert result["legal"]["vacuous_clauses"] == []
        assert result["legal"]["explored"] > 0
        assert result["legal"]["pruned"] > 0
        assert all(
            entry["caught"] for entry in result["mutations"].values()
        )

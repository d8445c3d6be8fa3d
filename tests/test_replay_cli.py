"""In-process tests for the ``replay`` CLI subcommand."""

import json

import pytest

from repro.__main__ import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRecordRun:
    def test_record_single_litmus_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "sb.jsonl")
        code, out, __ = run_cli(
            capsys, "replay", "record", "--litmus", "SB", "-o", path
        )
        assert code == 0
        assert "ok" in out and path in out
        code, out, __ = run_cli(capsys, "replay", "run", path, "--check")
        assert code == 0
        assert "replay OK" in out

    def test_record_all_litmus_to_dir(self, tmp_path, capsys):
        out_dir = str(tmp_path / "traces")
        code, out, __ = run_cli(
            capsys, "replay", "record", "--litmus", "all", "-o", out_dir
        )
        assert code == 0
        traces = sorted((tmp_path / "traces").glob("*.jsonl"))
        assert len(traces) >= 5
        code, __, __ = run_cli(
            capsys, "replay", "run", *[str(t) for t in traces], "--check"
        )
        assert code == 0

    def test_record_json_payload(self, tmp_path, capsys):
        path = str(tmp_path / "sb.jsonl")
        code, out, __ = run_cli(
            capsys, "replay", "record", "--litmus", "SB", "-o", path, "--json"
        )
        assert code == 0
        (payload,) = json.loads(out)
        assert payload["sc_ok"] is True
        assert payload["error"] is None

    def test_failing_record_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "fail.jsonl")
        code, out, __ = run_cli(
            capsys, "replay", "record", "--litmus", "SB", "-o", path,
            "--faults", "kill-acks", "--no-retry",
        )
        assert code == 1
        assert "FaultInducedError" in out
        # The failure is replayable: divergence-free, error reproduced.
        code, out, __ = run_cli(capsys, "replay", "run", path)
        assert code == 0
        assert "error reproduced" in out

    def test_unknown_litmus_is_usage_error(self, tmp_path, capsys):
        code, __, err = run_cli(
            capsys, "replay", "record", "--litmus", "NOPE",
            "-o", str(tmp_path / "x.jsonl"),
        )
        assert code == 2
        assert "unknown litmus" in err

    def test_invalid_trace_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code, __, err = run_cli(capsys, "replay", "run", str(bad))
        assert code == 2
        assert "invalid trace" in err


class TestMalformedDenials:
    """A ``denials`` header that is not ``[proc, n]`` pairs of
    non-negative integers is an invalid trace, not a different run."""

    @pytest.fixture(scope="class")
    def denial_trace_lines(self, tmp_path_factory):
        from repro.replay.recorder import record_run, replay_cell
        from repro.replay.schema import write_trace
        from repro.replay.workload import litmus_spec

        path = tmp_path_factory.mktemp("denials") / "mp.jsonl"
        cell = replay_cell(litmus_spec("MP", (1, 60)), denials=((0, 1),))
        write_trace(record_run(cell).trace, str(path))
        return path.read_text().splitlines()

    @pytest.mark.parametrize(
        "denials",
        [[[0]], 5, [["a", 1]], [[0, -3]]],
        ids=["short-pair", "not-a-list", "non-integer-proc", "negative-count"],
    )
    def test_malformed_denials_is_usage_error(
        self, denials, denial_trace_lines, tmp_path, capsys
    ):
        header = json.loads(denial_trace_lines[0])
        assert header["denials"] == [[0, 1]]
        header["denials"] = denials
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            "\n".join([json.dumps(header)] + denial_trace_lines[1:]) + "\n"
        )
        code, out, err = run_cli(capsys, "replay", "run", str(bad))
        assert code == 2
        assert "invalid trace" in err and "denials" in err
        assert out == ""


class TestMalformedCrashes:
    """A ``crashes`` header that is not a list of crash spellings
    ``CrashPoint.parse`` accepts is an invalid trace, not a crash."""

    @pytest.fixture(scope="class")
    def crash_trace_lines(self, tmp_path_factory):
        from repro.campaign.spec import FaultVariant
        from repro.replay.recorder import record_run, replay_cell
        from repro.replay.schema import write_trace
        from repro.replay.workload import litmus_spec

        path = tmp_path_factory.mktemp("crashes") / "mp.jsonl"
        cell = replay_cell(
            litmus_spec("MP", (1, 60)),
            fault=FaultVariant(crashes=("grant:1:arbiter0",)),
        )
        write_trace(record_run(cell).trace, str(path))
        return path.read_text().splitlines()

    @pytest.mark.parametrize(
        "crashes",
        [5, [["grant", 1]], ["bogus:1"], ["grant:0:arbiter0"]],
        ids=["not-a-list", "not-a-spelling", "unknown-point", "zero-occurrence"],
    )
    def test_malformed_crashes_is_usage_error(
        self, crashes, crash_trace_lines, tmp_path, capsys
    ):
        header = json.loads(crash_trace_lines[0])
        assert header["crashes"] == ["grant:1:arbiter0"]
        header["crashes"] = crashes
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            "\n".join([json.dumps(header)] + crash_trace_lines[1:]) + "\n"
        )
        code, out, err = run_cli(capsys, "replay", "run", str(bad))
        assert code == 2
        assert "invalid trace" in err and "crashes" in err
        assert out == ""


class TestExploreCli:
    def test_quick_explore_clean(self, capsys):
        code, out, __ = run_cli(
            capsys, "replay", "explore", "--litmus", "SB", "--quick",
            "--seeds", "1",
        )
        assert code == 0
        assert "⊆ static SC sets" in out

    def test_explore_json(self, capsys):
        code, out, __ = run_cli(
            capsys, "replay", "explore", "--litmus", "SB", "--quick",
            "--seeds", "1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True


class TestMinimizeCli:
    @pytest.fixture
    def failing_trace(self, tmp_path, capsys):
        path = str(tmp_path / "fail.jsonl")
        code, __, __ = run_cli(
            capsys, "replay", "record", "--litmus", "MP", "-o", path,
            "--stagger", "1,60", "--seed", "6",
            "--faults", "drop,delay,dup", "--no-retry",
        )
        assert code == 1
        return path

    def test_minimize_writes_rerunnable_repro(
        self, failing_trace, tmp_path, capsys
    ):
        out_path = str(tmp_path / "min.jsonl")
        code, out, __ = run_cli(
            capsys, "replay", "minimize", failing_trace, "-o", out_path,
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["strictly_smaller"] is True
        assert payload["minimized_faults"] < payload["original_faults"]
        code, out, __ = run_cli(capsys, "replay", "run", out_path)
        assert code == 0
        assert "error reproduced" in out

    def test_minimize_passing_trace_is_finding(self, tmp_path, capsys):
        path = str(tmp_path / "ok.jsonl")
        run_cli(capsys, "replay", "record", "--litmus", "SB", "-o", path)
        code, __, err = run_cli(capsys, "replay", "minimize", path)
        assert code == 1
        assert "passing run" in err


class TestChaosSaveTrace:
    def test_chaos_failure_saves_replayable_artifact(self, tmp_path, capsys):
        path = str(tmp_path / "chaos.jsonl")
        code, __, err = run_cli(
            capsys, "chaos", "--faults", "kill-acks", "--no-retry", "--quick",
            "--save-trace", path,
        )
        assert code == 3  # diagnosable failure
        assert path in err
        code, out, __ = run_cli(capsys, "replay", "run", path)
        assert code == 0
        assert "error reproduced" in out

    def test_chaos_clean_campaign_saves_nothing(self, tmp_path, capsys):
        path = str(tmp_path / "none.jsonl")
        code, __, err = run_cli(
            capsys, "chaos", "--faults", "delay", "--quick",
            "--save-trace", path,
        )
        assert code == 0
        assert "no failing run" in err
        assert not (tmp_path / "none.jsonl").exists()

"""Tests for the ``python -m repro`` command-line interface."""

import json
from dataclasses import replace

import pytest

from repro.__main__ import build_parser, main
from repro.harness.experiments import EXPERIMENTS
from repro.verify import litmus


class TestList:
    def test_lists_apps_and_configs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "barnes" in out and "sweb2005" in out
        assert "BSCdypvt" in out and "SC++" in out


class TestRun:
    def test_report_output(self, capsys):
        code = main(["run", "lu", "--config", "BSCdypvt", "--instructions", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chunk commits" in out

    def test_json_output(self, capsys):
        code = main(["run", "lu", "--config", "RC", "--instructions", "2000", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "lu"
        assert payload["cycles"] > 0
        assert "Rd/Wr" in payload["traffic_bytes"]

    def test_unknown_app_rejected(self, capsys):
        assert main(["run", "doom", "--instructions", "1000"]) == 2

    def test_unknown_config_rejected(self, capsys):
        assert main(["run", "lu", "--config", "XYZ"]) == 2


class TestCompare:
    def test_speedup_table(self, capsys):
        code = main(
            ["compare", "lu", "RC", "BSCdypvt", "--instructions", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup 1.000" in out
        assert "BSCdypvt" in out

    def test_bad_config_in_list(self, capsys):
        assert main(["compare", "lu", "RC", "nope"]) == 2


class TestExperiments:
    def test_every_registered_artifact_is_a_name(self):
        for name in ["all", *EXPERIMENTS]:
            assert build_parser().parse_args(["experiments", name]).name == name

    def test_figure9_subset(self, capsys):
        code = main(
            ["experiments", "figure9", "--apps", "lu", "--instructions", "2000"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 9" in captured.out and "G.M." in captured.out
        verdicts = captured.err.splitlines()
        assert len(verdicts) == len(EXPERIMENTS["figure9"].claims)
        assert all(line.startswith("PASS figure9 section 7.1: ") for line in verdicts)

    def test_failed_claim_exits_1_and_is_named(self, monkeypatch, capsys):
        experiment = EXPERIMENTS["figure9"]
        broken = replace(experiment.claims[1], holds=lambda data, apps: False)
        claims = (experiment.claims[0], broken) + experiment.claims[2:]
        monkeypatch.setitem(EXPERIMENTS, "figure9", replace(experiment, claims=claims))
        code = main(
            ["experiments", "figure9", "--apps", "lu", "--instructions", "2000"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"FAIL figure9 section 7.1: {broken.text}" in err.splitlines()
        assert err.count("FAIL") == 1


class TestLitmus:
    @pytest.fixture
    def always_forbidden(self, monkeypatch):
        """A litmus suite whose one test reports every outcome forbidden."""
        mp = replace(litmus.message_passing(), forbidden=lambda registers: True)
        monkeypatch.setattr(litmus, "all_litmus_tests", lambda: [mp])

    def test_clean_run_exits_0(self, capsys):
        assert main(["litmus", "--config", "BSCdypvt"]) == 0
        assert "SB     forbidden  0/12" in capsys.readouterr().out

    def test_forbidden_outcome_under_sc_model_exits_1(self, always_forbidden, capsys):
        assert main(["litmus", "--config", "BSCdypvt"]) == 1

    def test_forbidden_outcome_under_relaxed_model_exits_0(
        self, always_forbidden, capsys
    ):
        assert main(["litmus", "--config", "RC"]) == 0

    def test_unknown_config_exits_2(self, capsys):
        assert main(["litmus", "--config", "XYZ"]) == 2

    def test_typed_error_exits_1_under_relaxed_model(self, monkeypatch, capsys):
        from repro.errors import ProtocolError
        from repro.system import Machine

        def run(self, *args, **kwargs):
            raise ProtocolError("injected")

        monkeypatch.setattr(Machine, "run", run)
        assert main(["litmus", "--config", "RC"]) == 1
        assert "ERROR s0/g1-1: ProtocolError: injected" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices_guarded(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "figure99"])

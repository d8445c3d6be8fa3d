"""Tests for contracts cells in the campaign runner.

A ``contracts`` cell statically checks one component of one recorded
trace — no simulation — so per-component checks parallelize across the
campaign worker pool, and the config x fault x seed fan-out collapses
to one cell per (trace, component) via the memo key.
"""

import dataclasses

import pytest

from repro.campaign.queue import cells_by_key, expand_cells
from repro.campaign.report import aggregate_report, report_exit_code
from repro.campaign.runner import RunnerOptions, execute_cell, run_campaign
from repro.campaign.spec import CampaignSpec, expand_workload_arg
from repro.campaign.store import CampaignStore
from repro.errors import CampaignError
from repro.contracts.checker import CHECKABLE
from repro.replay.recorder import record_run, replay_cell
from repro.replay.schema import write_trace
from repro.replay.workload import litmus_spec


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("contracts-campaign") / "sb.jsonl"
    recorded = record_run(replay_cell(litmus_spec("SB", stagger=()), seed=0))
    write_trace(recorded.trace, str(path))
    return str(path)


@pytest.fixture(scope="module")
def bad_trace_path(tmp_path_factory):
    """SB with its squash record dropped: a BDM under-reporting bug."""
    path = tmp_path_factory.mktemp("contracts-campaign") / "sb-bad.jsonl"
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


def _spec(name, trace, component=None, configs=("BSCdypvt",), seeds=(0,)):
    if component is None:
        workloads = tuple(expand_workload_arg(f"contracts:{trace}"))
    else:
        workloads = (
            {"kind": "contracts", "trace": trace, "component": component},
        )
    return CampaignSpec(
        name=name, configs=tuple(configs), workloads=workloads,
        seeds=tuple(seeds),
    ).validate()


class TestSpecExpansion:
    def test_shorthand_expands_per_component(self, trace_path):
        workloads = expand_workload_arg(f"contracts:{trace_path}")
        assert len(workloads) == len(CHECKABLE)
        assert {w["component"] for w in workloads} == set(CHECKABLE)
        assert all(w["kind"] == "contracts" for w in workloads)
        assert all(w["trace"] == trace_path for w in workloads)

    def test_shorthand_needs_a_trace(self):
        with pytest.raises(CampaignError, match="trace path"):
            expand_workload_arg("contracts:")

    def test_validate_rejects_bad_component(self, trace_path):
        with pytest.raises(CampaignError, match="component"):
            _spec("bad", trace_path, component="tso")

    def test_memo_collapses_fanout(self, trace_path):
        spec = _spec(
            "fanout", trace_path,
            configs=("BSCdypvt", "BSCbase"), seeds=(0, 1, 2),
        )
        cells = expand_cells(spec)
        # 2 configs x 6 components x 3 seeds expand...
        assert len(cells) == 2 * len(CHECKABLE) * 3
        # ...but collapse per (trace, component): static checks don't
        # depend on config, seed, or fault environment.
        assert len(cells_by_key(cells)) == len(CHECKABLE)


class TestExecuteCell:
    def _cell(self, trace, component):
        (cell,) = expand_cells(_spec("one", trace, component=component))
        return cell

    def test_clean_component_certifies(self, trace_path):
        outcome = execute_cell(self._cell(trace_path, "arbiter"))
        assert outcome["status"] == "ok"
        assert outcome["contracts"]["failing"] == []

    def test_all_components_cell(self, trace_path):
        outcome = execute_cell(self._cell(trace_path, "all"))
        assert outcome["status"] == "ok"

    def test_violation_localized_in_outcome(self, bad_trace_path):
        outcome = execute_cell(self._cell(bad_trace_path, "bdm"))
        assert outcome["status"] == "contract-violation"
        assert outcome["contracts"]["failing"] == ["bdm"]
        assert "[bdm/" in outcome["sc_reason"]
        assert outcome["contracts"]["witnesses"]

    def test_component_isolation(self, bad_trace_path):
        """The arbiter cell of a BDM-buggy trace stays green: the whole
        point of per-component checking."""
        outcome = execute_cell(self._cell(bad_trace_path, "arbiter"))
        assert outcome["status"] == "ok"

    def test_missing_trace_is_error(self, tmp_path):
        outcome = execute_cell(
            self._cell(str(tmp_path / "gone.jsonl"), "arbiter")
        )
        assert outcome["status"] == "error"
        assert outcome["error"]


class TestCampaignRun:
    def test_full_campaign_over_contracts_cells(self, trace_path, tmp_path):
        spec = _spec("contracts-run", trace_path)
        store = CampaignStore.create(str(tmp_path / "store"), spec)
        payload = run_campaign(store, RunnerOptions(jobs=1, minimize=False))
        assert payload["all_certified"]
        assert payload["cells"] == len(CHECKABLE)
        assert report_exit_code(payload) == 0

    def test_violations_fail_the_campaign(self, bad_trace_path, tmp_path):
        spec = _spec("contracts-bad", bad_trace_path)
        store = CampaignStore.create(str(tmp_path / "store"), spec)
        payload = run_campaign(store, RunnerOptions(jobs=1, minimize=False))
        assert payload["counts"]["contract-violation"] >= 1
        assert report_exit_code(payload) == 1
        assert payload["first_failure"]["status"] == "contract-violation"
        assert "[bdm/" in payload["first_failure"]["sc_reason"]

    def test_aggregate_labels_by_component(self, trace_path):
        spec = _spec("labels", trace_path)
        cells = expand_cells(spec)
        outcomes = {
            c.key: {"status": "ok", "faults_injected": 0, "crashes": 0,
                    "cycles": 0.0}
            for c in cells
        }
        payload = aggregate_report(spec, cells, outcomes)
        assert set(payload["by_workload"]) == set(CHECKABLE)

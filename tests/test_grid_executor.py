"""The shared grid executor behind ``run_campaign`` and ``run_chaos``:
lazy serial execution, chaos's stop-at-first-error, injector identity
as cell data, and the fault trace riding back only in memory."""

from dataclasses import replace

from repro.campaign import runner
from repro.campaign.queue import expand_cells
from repro.campaign.runner import RunnerOptions, execute_cell, execute_cells, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.faults.chaos import run_chaos


def _spec(fault_args=("none",), seeds="0:3"):
    return CampaignSpec.build(
        name="executor-test",
        configs=["BSCdypvt"],
        workload_args=["litmus:SB/1-1"],
        seeds=seeds,
        fault_args=list(fault_args),
    )


def _cells(**kwargs):
    return expand_cells(_spec(**kwargs))


def _counting(monkeypatch):
    calls = []
    real = runner.execute_cell

    def counted(cell):
        calls.append(cell.key)
        return real(cell)

    monkeypatch.setattr(runner, "execute_cell", counted)
    return calls


def test_serial_outcomes_are_lazy(monkeypatch):
    calls = _counting(monkeypatch)
    cells = _cells()
    outcomes = execute_cells(cells, RunnerOptions(jobs=1))
    assert calls == []
    first = next(outcomes)
    assert first["key"] == cells[0].key
    assert calls == [cells[0].key]


def test_serial_chaos_stops_at_the_first_error(monkeypatch):
    calls = _counting(monkeypatch)
    report = run_chaos(seed=7, faults="kill-acks", no_retry=True, quick=True)
    assert len(report.runs) == 1
    assert len(calls) == 1


def test_injector_identity_is_data_outside_the_key():
    cell = _cells()[0]
    assert cell.injector_identity() == (cell.seed, f"campaign/{cell.key}")
    relabeled = replace(cell, injector=(7, "litmus/SB/s0/g0"))
    assert relabeled.key == cell.key
    assert relabeled.injector_identity() == (7, "litmus/SB/s0/g0")
    # The identity drives the injector: another label, another schedule.
    drop = _cells(fault_args=["drop,delay,dup"])[0]
    other = replace(drop, injector=(drop.seed, "elsewhere"))
    assert execute_cell(drop)["fault_summary"] != execute_cell(other)["fault_summary"]


def test_fault_trace_returns_in_memory_but_is_not_persisted(tmp_path):
    spec = _spec(fault_args=["kill-acks!"], seeds="0:1")
    outcome = execute_cell(expand_cells(spec)[0])
    assert outcome["status"] == "error"
    assert outcome["fault_trace"][0]["fault"] == "kill-acks"

    store = CampaignStore.create(str(tmp_path / "c"), spec)
    run_campaign(store, RunnerOptions(jobs=1, minimize=False))
    persisted = [record["outcome"] for record in store.load().results.values()]
    assert persisted and all("fault_trace" not in o for o in persisted)

"""Record → replay round-trip tests.

The determinism contract: (seed, config, workload, fault plan) fully
determines a run, so re-driving a recorded trace must reproduce the
identical event stream, final memory image, registers, and SC verdict.
"""

from dataclasses import replace

import pytest

from repro.campaign.spec import FaultVariant
from repro.replay.recorder import record_run, replay_cell, save_chaos_failure
from repro.replay.replayer import replay_trace
from repro.replay.schema import read_trace, write_trace
from repro.replay.workload import litmus_spec
from repro.verify.litmus import all_litmus_tests

SEEDS = [0, 1, 2]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("test_name", [t.name for t in all_litmus_tests()])
def test_litmus_round_trip(test_name, seed):
    run = record_run(replay_cell(litmus_spec(test_name, (1, 60)), seed=seed))
    assert run.error is None
    assert run.sc_ok is True
    result = replay_trace(run.trace)
    assert result.ok, result.describe()
    assert result.divergence is None
    assert result.footer_mismatches == []
    # End-state identity, not just stream identity.
    assert (
        result.replayed.trace.footer["final_memory"]
        == run.trace.footer["final_memory"]
    )
    assert result.replayed.trace.footer["registers"] == run.trace.footer["registers"]
    assert result.replayed.sc_ok is run.sc_ok


@pytest.mark.parametrize("seed", SEEDS)
def test_faulted_round_trip(seed):
    """A chaos-style plan (drop,delay,dup) still replays bit-identically."""
    run = record_run(
        replay_cell(
            litmus_spec("MP", (1, 60)), seed=seed, fault=FaultVariant("drop,delay,dup")
        )
    )
    result = replay_trace(run.trace)
    assert result.ok, result.describe()
    assert (
        result.replayed.trace.footer["total_faults"]
        == run.trace.footer["total_faults"]
    )
    assert (
        result.replayed.trace.footer["rng_draws"]
        == run.trace.footer["rng_draws"]
    )


def test_file_round_trip(tmp_path):
    """Writing and re-reading the trace changes nothing about replay."""
    path = str(tmp_path / "sb.jsonl")
    run = record_run(replay_cell(litmus_spec("SB", (1, 1)), seed=0))
    write_trace(run.trace, path)
    loaded = read_trace(path)
    assert loaded.records == run.trace.records
    assert loaded.footer == run.trace.footer
    result = replay_trace(loaded)
    assert result.ok, result.describe()


def test_failing_run_replays_with_same_error(tmp_path):
    """kill-acks + no-retry fails diagnosably; the failure itself replays."""
    path = str(tmp_path / "fail.jsonl")
    run = record_run(
        replay_cell(
            litmus_spec("SB", (1, 1)), seed=0, fault=FaultVariant("kill-acks", no_retry=True)
        )
    )
    assert run.error is not None and "FaultInducedError" in run.error
    write_trace(run.trace, path)
    result = replay_trace(read_trace(path))
    assert result.ok, result.describe()
    assert result.replayed.error == run.error


def test_replay_detects_tampering():
    """A doctored record stream produces a precise first-divergence."""
    from dataclasses import replace

    run = record_run(replay_cell(litmus_spec("SB", (1, 1)), seed=0))
    idx = next(
        i for i, r in enumerate(run.trace.records) if r.ev == "arb.grant"
    )
    doctored = replace(run.trace.records[idx], ev="arb.deny")
    run.trace.records[idx] = doctored
    result = replay_trace(run.trace)
    assert not result.ok
    assert result.divergence is not None
    assert result.divergence.index == idx
    assert "arb.deny" in result.divergence.describe()


def test_chaos_failure_saved_as_replayable_trace(tmp_path):
    from repro.faults.chaos import run_chaos

    report = run_chaos(
        seed=7, faults="kill-acks", workload="litmus", no_retry=True, quick=True
    )
    assert report.first_error is not None
    path = str(tmp_path / "chaos.jsonl")
    saved = save_chaos_failure(report, path)
    assert saved == path
    trace = read_trace(path)
    assert trace.kind == "chaos"
    assert trace.footer["error"] == report.first_error
    result = replay_trace(trace)
    assert result.ok, result.describe()


def test_stats_identity_across_replay():
    run = record_run(replay_cell(litmus_spec("IRIW", (60, 1)), seed=1))
    result = replay_trace(run.trace)
    assert result.ok
    assert result.replayed.trace.footer["stats"] == run.trace.footer["stats"]


@pytest.mark.parametrize(
    "faults,rate", [("drop,delay,dup", 0.3), ("reorder,storm,squash", 0.5)]
)
def test_scripted_rerun_matches_drawn_run(faults, rate):
    """Drawn faults lifted into a script re-apply exactly, draw-free."""
    from dataclasses import replace

    from repro.replay.minimizer import _fault_entries, _script_from

    cell = replay_cell(
        litmus_spec("SB", (1, 60)), seed=0, fault=FaultVariant(faults, rate)
    )
    drawn = record_run(cell)
    assert drawn.error is None
    assert {r.data["kind"] for r in drawn.trace.fault_records} == set(
        faults.split(",")
    )
    script = _script_from(_fault_entries(drawn.trace))
    scripted = record_run(replace(cell, fault=FaultVariant(), fault_script=script))
    assert scripted.trace.footer["injector_draws"] == 0
    old, new = drawn.trace.fault_records, scripted.trace.fault_records
    assert len(old) == len(new)
    for a, b in zip(old, new):
        assert b.data["detail"] == a.data["detail"] + " (scripted)"
        assert {**b.data, "detail": ""} == {**a.data, "detail": ""}
        assert (a.t, a.p) == (b.t, b.p)
    for key in ("final_memory", "registers", "cycles"):
        assert scripted.trace.footer[key] == drawn.trace.footer[key]


def test_cell_from_header_inverts_cell_header():
    from repro.campaign.queue import expand_cells
    from repro.campaign.spec import CampaignSpec
    from repro.replay.recorder import cell_from_header, cell_header
    from repro.replay.workload import app_spec

    cells = [
        replay_cell(litmus_spec("MP", (1, 60)), seed=2),
        replay_cell(
            app_spec("barnes", 600, 3),
            "BSCexact",
            seed=3,
            fault=FaultVariant("drop,dup", 0.1, True, ("grant:1:arbiter0",)),
        ),
        replay_cell(
            litmus_spec("SB", (1, 1), dropped_threads=[1]),
            seed=1,
            fault=FaultVariant(no_retry=True),
            fault_script={"deliver": {"3": {"kind": "drop", "extra": 0.0}}},
        ),
        replay_cell(litmus_spec("MP", (1, 60)), seed=2, denials=((0, 2), (1, 1))),
    ]
    for cell in cells:
        for kind in ("run", "chaos", "minimized"):
            header = cell_header(cell, kind)
            assert cell_from_header(header) == cell
            assert cell_header(cell_from_header(header), kind) == header
    # A campaign cell's default injector identity survives the header.
    spec = CampaignSpec.build(
        "inverse", ["BSCdypvt"], ["litmus:SB/1-1"], fault_args=["drop@0.2!"]
    )
    (cell,) = expand_cells(spec)
    header = cell_header(cell, "chaos")
    back = cell_from_header(header)
    assert back.injector_identity() == cell.injector_identity()
    assert cell_header(back, "chaos") == header


def test_recorded_denial_run_replays(tmp_path):
    cell = replay_cell(litmus_spec("MP", (1, 60)), seed=0, denials=((0, 2),))
    plain = record_run(replace(cell, denials=()))
    denied = record_run(cell)
    assert denied.error is None and denied.sc_ok
    reasons = [r.data["reason"] for r in denied.trace.records if r.ev == "arb.deny"]
    assert reasons.count("forced denial") == 2
    assert denied.trace.footer["cycles"] != plain.trace.footer["cycles"]
    path = str(tmp_path / "denied.jsonl")
    write_trace(denied.trace, path)
    result = replay_trace(read_trace(path))
    assert result.ok, result.describe()

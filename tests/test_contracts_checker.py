"""Tests for the per-component contract checker over real traces.

The acceptance-critical case lives here: an injected BDM
*under-reporting* bug (a conflict the BDM should have squashed on is
silently dropped) must be caught with a witness localized to the BDM
contract — component and clause named, offending record ids listed —
not reported as a whole-run cycle.
"""

import dataclasses

import pytest

from repro.campaign.spec import FaultVariant
from repro.contracts.checker import (
    CHECKABLE,
    ContractError,
    check_records,
    check_trace,
    localized_summary,
    render_report,
)
from repro.contracts.library import COMPONENTS
from repro.contracts.slicer import component_streams
from repro.replay.recorder import record_run, replay_cell
from repro.replay.workload import litmus_spec


@pytest.fixture(scope="module")
def sb_trace():
    """SB has a guaranteed W∩R conflict: one delivery with sig_conflicts
    and one matching squash."""
    return record_run(replay_cell(litmus_spec("SB", stagger=()), seed=0)).trace


@pytest.fixture(scope="module")
def crash_trace():
    return record_run(
        replay_cell(
            litmus_spec("MP", stagger=()),
            seed=0,
            fault=FaultVariant(crashes=("grant:1:arbiter0",)),
        )
    ).trace


class TestCleanTraces:
    def test_litmus_trace_passes_every_contract(self, sb_trace):
        report = check_trace(sb_trace)
        assert report.ok
        assert report.failing_components == ()
        assert {v.component for v in report.verdicts} == set(COMPONENTS)

    def test_bdm_clauses_are_not_vacuous_on_sb(self, sb_trace):
        report = check_trace(sb_trace)
        (bdm,) = [v for v in report.verdicts if v.component == "bdm"]
        assert bdm.activations["squash-justified"] >= 1
        assert bdm.activations["conflicts-squashed"] >= 1

    def test_crash_recovery_trace_passes(self, crash_trace):
        report = check_trace(crash_trace)
        assert report.ok, [w.describe() for w in report.witnesses]
        (recovery,) = [
            v for v in report.verdicts if v.component == "recovery"
        ]
        assert recovery.activations["lifecycle-order"] >= 1
        assert recovery.activations["no-dead-epoch-grant"] >= 1

    def test_component_filter(self, sb_trace):
        report = check_trace(sb_trace, components=["arbiter"])
        assert [v.component for v in report.verdicts] == ["arbiter"]
        assert report.composition is None

    def test_unknown_component_rejected(self, sb_trace):
        with pytest.raises(ContractError, match="unknown component"):
            check_trace(sb_trace, components=["tso"])
        assert "composition" in CHECKABLE


class TestInjectedBdmUnderReporting:
    """Acceptance criterion: a seeded BDM under-reporting bug is caught
    with a witness localized to the BDM contract."""

    def _drop_squash(self, trace):
        """The bug: BDM observes a signature conflict but never squashes
        the conflicting chunk (disambiguation silently under-reports)."""
        conflicted = [
            r for r in trace.records
            if r.ev == "inv.deliver" and r.data.get("sig_conflicts")
        ]
        assert conflicted, "fixture trace must carry a signature conflict"
        return [r for r in trace.records if r.ev != "chunk.squash"]

    def test_caught_and_localized_to_bdm(self, sb_trace):
        records = self._drop_squash(sb_trace)
        report = check_records(
            records, footer=sb_trace.footer, components=COMPONENTS
        )
        assert not report.ok
        assert report.failing_components == ("bdm",)
        (witness, *rest) = [
            w for w in report.witnesses if w.component == "bdm"
        ]
        assert witness.clause == "conflicts-squashed"
        # Localized: the witness anchors to trace record seq numbers,
        # not a whole-run cycle.
        assert witness.events
        assert all(isinstance(e, int) for e in witness.events)

    def test_summary_names_the_component(self, sb_trace):
        records = self._drop_squash(sb_trace)
        report = check_records(
            records, footer=sb_trace.footer, components=COMPONENTS
        )
        summary = localized_summary(report)
        assert "violation localized to bdm" in summary
        assert "[bdm/conflicts-squashed]" in summary

    def test_dropped_sig_conflict_entry_caught(self, sb_trace):
        """The dual bug: the squash happened but the BDM's recorded
        conflict set claims a chunk that conflicts was clean — the
        signature-soundness clause (true ⊆ sig) catches it."""
        records = []
        for r in sb_trace.records:
            if r.ev == "inv.deliver" and r.data.get("sig_conflicts"):
                data = dict(r.data, sig_conflicts=[])
                records.append(dataclasses.replace(r, data=data))
            else:
                records.append(r)
        report = check_records(
            records, footer=sb_trace.footer, components=COMPONENTS
        )
        assert not report.ok
        assert "bdm" in report.failing_components


class TestSlicer:
    def test_streams_cover_all_components(self, sb_trace):
        streams = component_streams(sb_trace.records)
        assert set(streams) == set(COMPONENTS)
        assert streams["arbiter"]
        assert streams["bdm"]

    def test_interface_records_shared_across_slices(self, sb_trace):
        """commit.serialize feeds arbiter, dirbdm and network alike —
        the interface sharing the composition argument relies on."""
        streams = component_streams(sb_trace.records)
        serials = {r.seq for r in sb_trace.records
                   if r.ev == "commit.serialize"}
        for component in ("arbiter", "dirbdm", "network"):
            assert serials <= {r.seq for r in streams[component]}

    def test_seq_numbers_preserved(self, sb_trace):
        streams = component_streams(sb_trace.records)
        originals = {r.seq: r for r in sb_trace.records}
        for stream in streams.values():
            for record in stream:
                assert originals[record.seq] is record


class TestRendering:
    def test_render_report_clean(self, sb_trace):
        text = render_report(check_trace(sb_trace), name="sb")
        assert "contract verdicts for sb" in text
        assert "[ok ] arbiter" in text
        assert "composition" in text
        assert "agreement=agree" in text

    def test_render_report_failure_lists_witnesses(self, sb_trace):
        records = [r for r in sb_trace.records if r.ev != "chunk.squash"]
        report = check_records(
            records, footer=sb_trace.footer, components=COMPONENTS
        )
        text = render_report(report)
        assert "[FAIL] bdm" in text
        assert "VIOLATED" in text
        assert "witnesses (" in text

    def test_localized_summary_clean(self, sb_trace):
        assert localized_summary(check_trace(sb_trace)) == (
            "contracts: all components ok"
        )

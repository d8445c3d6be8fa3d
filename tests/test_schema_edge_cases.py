"""Trace-schema edge cases the contract slicer depends on.

Three classes of input the static verification layer must handle
without mis-firing: traces with zero recovery records (the common
case), v1 traces read through the upgrade path (no recovery kinds, no
enriched fields), and torn files (a run killed mid-write leaves no
footer — the reader must refuse, never hand the slicer a prefix as if
it were complete).
"""

import pytest

from repro.contracts.checker import check_records, check_trace
from repro.contracts.slicer import component_streams, slice_trace
from repro.replay.recorder import record_run, replay_cell
from repro.replay.schema import (
    SUPPORTED_VERSIONS,
    Trace,
    TraceRecord,
    TraceValidationError,
    read_trace,
    write_trace,
)
from repro.replay.workload import litmus_spec


@pytest.fixture(scope="module")
def recorded():
    return record_run(replay_cell(litmus_spec("MP", stagger=()), seed=0)).trace


class TestZeroRecoveryRecords:
    def test_fault_free_trace_has_empty_recovery_slice(self, recorded):
        streams = component_streams(recorded.records)
        recovery = [
            r for r in streams["recovery"]
            if r.ev.startswith("arb.")
            and r.ev != "arb.grant"
        ]
        assert recovery == []

    def test_recovery_contract_vacuous_not_failing(self, recorded):
        report = check_trace(recorded)
        (recovery,) = [
            v for v in report.verdicts if v.component == "recovery"
        ]
        assert recovery.ok
        assert all(c.vacuous for c in recovery.clauses)


class TestV1UpgradePath:
    def _v1_trace(self, tmp_path, recorded):
        """A v1-era trace: version 1, no recovery records, and records
        stripped of every enriched (v2-optional) data field."""
        v1_fields = {
            "chunk.start": (),
            "chunk.close": ("reason",),
            "chunk.grant": (),
            "chunk.commit": ("chunk",),
            "chunk.squash": ("chunk", "instructions"),
            "arb.grant": ("commit",),
            "commit.serialize": ("commit", "chunk"),
            "inv.deliver": ("from",),
        }
        records = []
        for r in recorded.records:
            if r.ev.startswith("arb.") and r.ev != "arb.grant":
                continue
            if r.ev == "dir.expand":
                continue
            kept = v1_fields.get(r.ev)
            data = (
                {k: v for k, v in r.data.items() if k in kept}
                if kept is not None
                else dict(r.data)
            )
            records.append(
                TraceRecord(
                    seq=len(records) + 1, t=r.t, ev=r.ev, p=r.p, data=data
                )
            )
        header = dict(recorded.header, version=1)
        footer = dict(recorded.footer, records=len(records))
        trace = Trace(header=header, records=records, footer=footer)
        path = tmp_path / "v1.jsonl"
        write_trace(trace, str(path))
        return str(path)

    def test_v1_still_supported(self):
        assert 1 in SUPPORTED_VERSIONS

    def test_v1_reads_and_slices(self, tmp_path, recorded):
        trace = read_trace(self._v1_trace(tmp_path, recorded))
        assert trace.header["version"] == 1
        streams = slice_trace(trace)
        # The recovery slice still sees grants (selector kind), but the
        # v2 crash-lifecycle records simply do not exist in a v1 trace.
        assert not [
            r for r in streams["recovery"] if r.ev.startswith("arb.")
        ]
        assert streams["arbiter"]  # commit.serialize records survive

    def test_v1_contracts_vacuous_not_failing(self, tmp_path, recorded):
        """Un-enriched records must leave clauses unevaluable/vacuous,
        never produce false violations."""
        trace = read_trace(self._v1_trace(tmp_path, recorded))
        report = check_trace(trace)
        assert report.ok, [w.describe() for w in report.witnesses]
        (bdm,) = [v for v in report.verdicts if v.component == "bdm"]
        # No sig_conflicts data -> the BDM guard keeps clauses quiet.
        assert all(c.vacuous for c in bdm.clauses)
        assert report.composition is not None
        assert not report.composition.evaluated
        assert "enrichment" in report.composition.reason

    def test_unsupported_version_rejected(self, tmp_path, recorded):
        path = self._v1_trace(tmp_path, recorded)
        text = open(path).read().replace('"version":1', '"version":99', 1)
        bad = tmp_path / "v99.jsonl"
        bad.write_text(text)
        with pytest.raises(TraceValidationError, match="unsupported"):
            read_trace(str(bad))


class TestTornFinalRecord:
    def test_missing_footer_rejected(self, tmp_path, recorded):
        path = tmp_path / "torn.jsonl"
        write_trace(recorded, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceValidationError, match="truncated trace"):
            read_trace(str(path))

    def test_half_written_final_record_rejected(self, tmp_path, recorded):
        """A kill mid-append tears the last line into partial JSON."""
        path = tmp_path / "torn2.jsonl"
        write_trace(recorded, str(path))
        text = path.read_text()
        path.write_text(text[: len(text) - 25])
        with pytest.raises(TraceValidationError, match="not valid JSON"):
            read_trace(str(path))

    def test_content_after_footer_rejected(self, tmp_path, recorded):
        path = tmp_path / "tail.jsonl"
        write_trace(recorded, str(path))
        with open(path, "a") as fh:
            fh.write('{"seq":999,"t":0,"ev":"chunk.start"}\n')
        with pytest.raises(TraceValidationError, match="after the footer"):
            read_trace(str(path))

    def test_checker_never_sees_a_torn_stream(self, tmp_path, recorded):
        """The slicer/checker layer is only reachable through
        read_trace, so a torn file can't silently produce a clean
        verdict over a prefix; checking the prefix directly (as the
        model checker does with synthetic streams) still works."""
        prefix = recorded.records[: len(recorded.records) // 2]
        report = check_records(prefix)  # no footer: composition skips cross-checks
        assert report.composition is not None

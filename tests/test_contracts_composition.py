"""Tests for the composition obligation (interface-event SC replay)."""

import dataclasses

import pytest

from repro.contracts.composition import compose
from repro.replay.recorder import record_run, replay_cell
from repro.replay.schema import TraceRecord
from repro.replay.workload import litmus_spec


@pytest.fixture(scope="module")
def mp_trace():
    return record_run(replay_cell(litmus_spec("MP", stagger=()), seed=0)).trace


def _tamper_serialize(trace, mutate):
    """Return records with ``mutate(ops_rows)`` applied to the first
    enriched commit.serialize record it reports success on (returns
    True when it found something to corrupt)."""
    records = []
    done = False
    for r in trace.records:
        if not done and r.ev == "commit.serialize" and r.data.get("ops"):
            ops = [list(op) for op in r.data["ops"]]
            if mutate(ops):
                records.append(
                    dataclasses.replace(r, data=dict(r.data, ops=ops))
                )
                done = True
                continue
        records.append(r)
    assert done, "no serialize record the mutation applies to"
    return records


class TestCleanReplay:
    def test_litmus_trace_certifies_and_agrees(self, mp_trace):
        result = compose(mp_trace.records, mp_trace.footer)
        assert result.evaluated
        assert result.ok
        assert result.sc_ok is True
        assert result.agreement == "agree"
        assert result.chunks >= 2
        assert result.ops >= 4

    def test_payload_shape(self, mp_trace):
        payload = compose(mp_trace.records, mp_trace.footer).payload()
        assert payload["component"] == "composition"
        assert payload["agreement"] == "agree"
        assert payload["witnesses"] == []


class TestUnevaluable:
    def test_no_interface_events(self):
        result = compose([TraceRecord(seq=1, t=0.0, ev="chunk.start", p=0)])
        assert not result.evaluated
        assert "no interface events" in result.reason
        assert result.sc_ok is None
        assert result.ok  # unevaluable is not a violation

    def test_pre_enrichment_trace(self, mp_trace):
        stripped = [
            dataclasses.replace(
                r, data={k: v for k, v in r.data.items() if k != "ops"}
            )
            if r.ev == "commit.serialize"
            else r
            for r in mp_trace.records
        ]
        result = compose(stripped, mp_trace.footer)
        assert not result.evaluated
        assert "predates interface enrichment" in result.reason

    def test_elided_records(self, mp_trace):
        footer = dict(mp_trace.footer, records_elided=True)
        result = compose(mp_trace.records, footer)
        assert not result.evaluated
        assert "elided" in result.reason


class TestViolationsCaught:
    def test_program_order_regression(self, mp_trace):
        def regress(ops):
            ops[-1][3] = -1  # program index regresses
            return True

        result = compose(_tamper_serialize(mp_trace, regress),
                         mp_trace.footer)
        assert result.evaluated
        assert result.sc_ok is False
        clauses = {w.clause for w in result.witnesses}
        assert "program-order" in clauses
        # The dynamic checker said ok; disagreement is itself a finding.
        assert result.agreement == "disagree"
        assert "sc-agreement" in clauses

    def test_load_value_violation(self, mp_trace):
        def wrong_load(ops):
            for op in ops:
                if not op[0]:  # first load
                    op[2] = op[2] + 41
                    return True
            return False

        result = compose(_tamper_serialize(mp_trace, wrong_load),
                         mp_trace.footer)
        assert result.evaluated
        assert result.sc_ok is False
        assert any(w.clause == "load-value" for w in result.witnesses)

    def test_final_memory_mismatch(self, mp_trace):
        def skew_store(ops):
            for op in ops:
                if op[0]:  # first store
                    op[2] = op[2] + 97
                    return True
            return False

        result = compose(_tamper_serialize(mp_trace, skew_store),
                         mp_trace.footer)
        assert not result.ok
        clauses = {w.clause for w in result.witnesses}
        # Either a later load observes the skew or the final image does.
        assert clauses & {"final-memory", "load-value"}

    def test_witnesses_are_composition_local(self, mp_trace):
        def regress(ops):
            ops[-1][3] = -1
            return True

        result = compose(_tamper_serialize(mp_trace, regress),
                         mp_trace.footer)
        assert all(w.component == "composition" for w in result.witnesses)

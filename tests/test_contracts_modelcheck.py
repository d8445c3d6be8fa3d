"""Tests for the bounded model checker over real runs.

The checker must (a) sweep the grid of real recorded runs and report
explored and pruned schedule counts, (b) find every shipped contract
clause and the composition obligation active and unviolated on legal
runs, and (c) catch each seeded mutation — a method patch of one real
component, restored after its sweep — with violations localized to
exactly the contract that owns that component.
"""

import contextlib
import io
import json

import pytest

from repro.__main__ import main
from repro.contracts.library import ALL_CONTRACTS
from repro.contracts.modelcheck import (
    MUTATIONS,
    ModelCheckError,
    _PATCHES,
    mutated,
    render_modelcheck,
    run_model,
)

RECOVERY_CLAUSES = [
    "recovery/lifecycle-order",
    "recovery/epoch-increasing",
    "recovery/no-dead-epoch-grant",
]


def _modelcheck_json() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", "contracts", "--modelcheck", "--json"])
    assert code == 0, out.getvalue()
    return out.getvalue()


@pytest.fixture(scope="module")
def cli_json():
    """The full obligation, as ``analyze contracts --modelcheck --json`` prints it."""
    return _modelcheck_json()


@pytest.fixture(scope="module")
def payload(cli_json):
    return json.loads(cli_json)["modelcheck"]


@pytest.fixture(scope="module")
def crash_free():
    """The legal sweep without crash points: recovery has nothing to do."""
    return run_model(crash_points=())


class TestLegalEnumeration:
    def test_base_config_exhaustive_and_clean(self, crash_free):
        # 7 litmus tests x 4 configs, each with its denial schedules.
        assert crash_free.explored > 7 * 4
        assert crash_free.violations == {}
        assert crash_free.failures == []
        assert crash_free.ok

    def test_crash_config_clean(self, payload):
        legal = payload["legal"]
        assert legal["ok"]
        assert legal["violations"] == {}
        assert legal["failures"] == []
        # Crash runs exercise every recovery clause.
        for clause, count in legal["activations"]["recovery"].items():
            assert count > 0, clause

    def test_non_vacuity_across_base_plus_crash(self, payload):
        legal = payload["legal"]
        assert legal["vacuous_clauses"] == []
        expected = {
            contract.component: {clause.name for clause in contract.clauses}
            for contract in ALL_CONTRACTS
        }
        expected["composition"] = {"interface-replay"}
        assert {
            component: set(per_clause)
            for component, per_clause in legal["activations"].items()
        } == expected
        for component, per_clause in legal["activations"].items():
            for clause, count in per_clause.items():
                assert count > 0, f"{component}/{clause} is vacuous"

    def test_determinism(self, cli_json):
        assert _modelcheck_json() == cli_json

    def test_pruning_counted(self, payload):
        legal = payload["legal"]
        assert legal["explored"] > 0
        assert legal["pruned"] > 0
        grid = payload["grid"]
        assert grid["denial_budget"] == 2
        assert grid["max_crash_occurrence"] == 3


class TestMutationsCaught:
    """Each seeded bug is found, and localized to its own component."""

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_localized_to_target(self, mutation):
        target = MUTATIONS[mutation]
        report = run_model(mutation=mutation)
        assert report.caught, f"{mutation} produced no {target} violation"
        assert set(report.violations) == {target}
        assert report.sample_witnesses
        assert all(w["component"] == target for w in report.sample_witnesses)

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_clean_sweep_after_mutated_sweep(self, mutation):
        owner, name, __ = _PATCHES[mutation]
        original = owner.__dict__[name]
        assert run_model(litmus="SB", mutation=mutation).violations
        assert owner.__dict__[name] is original
        clean = run_model(litmus="SB")
        assert clean.violations == {}
        assert clean.failures == []

    def test_patch_restored_when_the_block_raises(self):
        owner, name, __ = _PATCHES["skip-squash"]
        original = owner.__dict__[name]
        with pytest.raises(RuntimeError):
            with mutated("skip-squash"):
                assert owner.__dict__[name] is not original
                raise RuntimeError("sweep aborted")
        assert owner.__dict__[name] is original

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ModelCheckError):
            run_model(mutation="off-by-one")


class TestVerifyContracts:
    def test_full_obligation_holds(self, payload):
        assert payload["ok"], payload["problems"]
        assert payload["problems"] == []

    def test_vacuity_detector_fires(self, crash_free):
        # Without crashes the recovery contract never activates; the
        # detector must say so, clause by clause, and fail the check.
        assert crash_free.vacuous_clauses == RECOVERY_CLAUSES
        assert crash_free.legal_problems() == [
            f"vacuous clause: {clause} never activated on any legal run"
            for clause in RECOVERY_CLAUSES
        ]

    def test_legal_runs_clean(self, payload):
        legal = payload["legal"]
        assert legal["explored"] > 0
        assert legal["violations"] == {}
        assert legal["failures"] == []
        assert legal["sample_witnesses"] == []

    def test_every_mutation_caught(self, payload):
        assert set(payload["mutations"]) == set(MUTATIONS)
        for name, entry in payload["mutations"].items():
            assert entry["caught"], f"mutation {name} escaped"
            assert entry["target"] == MUTATIONS[name]
            assert MUTATIONS[name] in entry["violations"]
            assert entry["explored"] > 0

    def test_render(self, payload):
        text = render_modelcheck(payload)
        assert "explored=" in text and "pruned=" in text
        assert text.endswith("model check OK")
        for name in MUTATIONS:
            assert name in text

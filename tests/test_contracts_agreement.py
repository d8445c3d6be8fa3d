"""Agreement sweep: composition checker vs the dynamic sc_checker.

The composition obligation claims that replaying interface events alone
certifies SC.  That claim is only credible if the static verdict always
matches the dynamic one, so this sweep runs every litmus test x 3 seeds
x faults off/on and asserts identical pass/fail verdicts — any
disagreement fails the build (agree-or-fail).
"""

import pytest

from repro.campaign.spec import FaultVariant
from repro.contracts.checker import check_trace
from repro.contracts.composition import compose
from repro.replay.recorder import record_run, replay_cell
from repro.replay.workload import litmus_spec

LITMUS_TESTS = ("SB", "MP", "LB", "IRIW", "CoRR", "CoWW", "WRC")
SEEDS = (0, 1, 2)
FAULTS = (None, "drop,delay,dup,reorder,storm,squash")


def _sweep():
    for test in LITMUS_TESTS:
        for seed in SEEDS:
            for faults in FAULTS:
                yield test, seed, faults


@pytest.mark.parametrize(
    "test,seed,faults",
    list(_sweep()),
    ids=[
        f"{t}-s{s}-{'faulted' if f else 'clean'}" for t, s, f in _sweep()
    ],
)
def test_composition_agrees_with_sc_checker(test, seed, faults):
    recorded = record_run(
        replay_cell(
            litmus_spec(test, stagger=()),
            seed=seed,
            fault=FaultVariant(faults or "", 0.05 if faults else None),
        )
    )
    trace = recorded.trace
    result = compose(trace.records, trace.footer)
    assert result.evaluated, result.reason
    # Identical pass/fail verdicts, recorded as an explicit agreement.
    assert result.sc_ok == bool(trace.footer["sc_ok"])
    assert result.agreement == "agree", [
        w.describe() for w in result.witnesses
    ]


def test_sweep_covers_the_whole_litmus_suite():
    from repro.verify.litmus import all_litmus_tests

    assert {t.name for t in all_litmus_tests()} == set(LITMUS_TESTS)


def test_full_report_stays_clean_across_sweep():
    """Beyond composition: no local contract mis-fires anywhere in the
    sweep (spot-checked on the faulted corner, which exercises the
    fault-excuse paths of the BDM/network contracts)."""
    for test in LITMUS_TESTS:
        recorded = record_run(
            replay_cell(
                litmus_spec(test, stagger=()),
                seed=1,
                fault=FaultVariant(FAULTS[1], 0.05),
            )
        )
        report = check_trace(recorded.trace)
        assert report.ok, (
            test,
            [w.describe() for w in report.witnesses],
        )

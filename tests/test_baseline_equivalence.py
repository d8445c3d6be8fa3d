"""Golden-digest equivalence for the baseline consistency models.

Every SC, RC, SC++ and TSO run is deterministic, so a run is pinned by a
sha256 of the same fingerprint ``tests/test_interpreter_equivalence.py``
uses for BulkSC (stats snapshot, events fired, cycles, final registers,
RNG draws, retired instructions, nonzero memory).
``tests/golden/baseline_digests.json`` holds those digests for

* the 7 litmus tests x SC/RC/SC++/TSO x staggers (1,1)/(1,60)/(200,7) x
  seeds 0-1, each fingerprint carrying the run's observed outcome (is it
  SC-forbidden?), so the RC/TSO non-SC outcomes stay pinned;
* the 13 applications x the same 4 configs at 1500 instructions per
  thread, with history recording on (a digest of the recorded history
  joins the fingerprint).

The digests were recorded on the per-op baseline interpreter, before the
baselines moved onto the op-stream loop.  Regenerate (only for an
intentional behaviour change) with

    PYTHONPATH=src python tests/test_baseline_equivalence.py --write
"""

import hashlib
import json
import os
import sys
from dataclasses import astuple

import pytest

from repro.harness.perf import run_litmus_cell
from repro.harness.runner import ALL_APPS, build_app_workload
from repro.params import NAMED_CONFIGS
from repro.system import run_workload
from repro.verify.litmus import all_litmus_tests

from test_interpreter_equivalence import _run_digest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "baseline_digests.json")

CONFIGS = ("SC", "RC", "SC++", "TSO")
LITMUS_TESTS = {test.name: test for test in all_litmus_tests()}
LITMUS_NAMES = tuple(LITMUS_TESTS)
LITMUS_STAGGERS = ((1, 1), (1, 60), (200, 7))
LITMUS_SEEDS = (0, 1)
APP_INSTRUCTIONS = 1500
APP_SHARDS = 3


def _history_digest(history) -> str:
    """sha256 of every recorded access, in record order."""
    canonical = json.dumps(
        [astuple(event) for event in history.events()], separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def litmus_digest(config_name, test_name, stagger, seed):
    config = NAMED_CONFIGS[config_name](seed=seed)
    result = run_litmus_cell(test_name, config, stagger)
    forbidden = LITMUS_TESTS[test_name].forbidden(result.registers)
    return _run_digest(result, forbidden=forbidden)


def app_digest(config_name, app):
    config = NAMED_CONFIGS[config_name](seed=0)
    workload = build_app_workload(app, config, APP_INSTRUCTIONS, 0)
    result = run_workload(
        config, workload.programs, workload.address_space, record_history=True
    )
    return _run_digest(result, history=_history_digest(result.history))


def litmus_cases(test_names=LITMUS_NAMES, staggers=LITMUS_STAGGERS):
    for config_name in CONFIGS:
        for test_name in test_names:
            for stagger in staggers:
                for seed in LITMUS_SEEDS:
                    key = f"{config_name}/{test_name}/{stagger[0]},{stagger[1]}/{seed}"
                    yield key, (
                        lambda c=config_name, t=test_name, s=stagger, d=seed: (
                            litmus_digest(c, t, s, d)
                        )
                    )


def app_cases(apps=ALL_APPS):
    for config_name in CONFIGS:
        for app in apps:
            yield f"{config_name}/{app}", (
                lambda c=config_name, a=app: app_digest(c, a)
            )


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _mismatches(section, cases):
    """Keys whose digest differs from (or is missing in) the golden file."""
    golden = _load_golden()[section]
    return [key for key, compute in cases if golden.get(key) != compute()]


# ----------------------------------------------------------------------
# Tests: each partition of the golden file is checked exactly once.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stagger", LITMUS_STAGGERS)
def test_litmus_bit_identical(stagger):
    """Every litmus test, baseline config and seed at one stagger."""
    assert _mismatches("litmus", litmus_cases(staggers=(stagger,))) == []


@pytest.mark.parametrize("shard", range(APP_SHARDS))
def test_synthetic_bit_identical(shard):
    """One third of the synthetic applications under all four baselines."""
    cases = app_cases(apps=ALL_APPS[shard::APP_SHARDS])
    assert _mismatches("apps", cases) == []


def test_relaxed_outcomes_stay_pinned():
    """The golden runs include RC and TSO non-SC outcomes (SB at least)."""
    forbidden = {
        config_name: sum(
            LITMUS_TESTS[test].forbidden(
                run_litmus_cell(test, NAMED_CONFIGS[config_name](seed=0), (1, 1)).registers
            )
            for test in LITMUS_NAMES
        )
        for config_name in CONFIGS
    }
    assert forbidden["SC"] == forbidden["SC++"] == 0
    assert forbidden["RC"] > 0 and forbidden["TSO"] > 0


def test_golden_file_covers_every_case():
    """The golden file holds exactly the cases the tests above compute."""
    golden = _load_golden()
    expected = {
        "litmus": {key for key, __ in litmus_cases()},
        "apps": {key for key, __ in app_cases()},
    }
    assert {section: set(golden[section]) for section in expected} == expected


# ----------------------------------------------------------------------
# Regeneration
# ----------------------------------------------------------------------
def generate():
    """Compute every digest of the golden file."""
    return {
        section: {key: compute() for key, compute in cases}
        for section, cases in (("litmus", litmus_cases()), ("apps", app_cases()))
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_baseline_equivalence.py --write")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")

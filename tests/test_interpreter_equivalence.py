"""Golden-digest equivalence for the BulkSC op-stream interpreter.

Every BulkSC run is deterministic, so a run is pinned by a sha256 of its
fingerprint: the deterministic stats snapshot, events fired, cycles,
final registers, RNG draws, retired instructions and nonzero memory.
``tests/golden/bulksc_digests.json`` holds those digests for

* the 7 litmus tests x BSCbase/BSCdypvt/BSCexact/BSCstpvt x staggers
  (1,1)/(1,60)/(200,7) x seeds 0-1, with 4-instruction chunks so nearly
  every op crosses a commit;
* the 13 applications x the same 4 configs at 1500 instructions per
  thread, with history recording on;
* the byte-exact replay JSONL of the SB, MP and barnes specs under each
  of the 4 configs.

The digests were recorded while the simulator still carried a scalar
per-op interpreter next to the batched one, and generation asserted the
two agreed on every case; the tests below hold the one op-stream
interpreter to that record.  Regenerate (only for an intentional
behaviour change) with

    PYTHONPATH=src python tests/test_interpreter_equivalence.py --write
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from repro.harness.perf import _commit_heavy_config, run_litmus_cell
from repro.harness.runner import ALL_APPS, build_app_workload
from repro.params import NAMED_CONFIGS
from repro.replay.recorder import record_run
from repro.replay.schema import write_trace
from repro.system import run_workload
from repro.verify.litmus import all_litmus_tests

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "bulksc_digests.json")

CONFIGS = ("BSCbase", "BSCdypvt", "BSCexact", "BSCstpvt")
LITMUS_NAMES = tuple(test.name for test in all_litmus_tests())
LITMUS_STAGGERS = ((1, 1), (1, 60), (200, 7))
LITMUS_SEEDS = (0, 1)
LITMUS_CHUNK = 4
APP_INSTRUCTIONS = 1500
APP_SHARDS = 3
REPLAY_SPECS = {
    "sb": {"kind": "litmus", "test": "SB", "stagger": [1, 1]},
    "mp": {"kind": "litmus", "test": "MP", "stagger": [1, 60]},
    "barnes": {"kind": "app", "app": "barnes", "instructions": 1500, "seed": 0},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_digest(result, **extra) -> str:
    """sha256 of the canonical JSON of everything a run determines.

    ``extra`` adds caller-specific fields (an observed litmus outcome, a
    history digest) to the fingerprint.
    """
    machine = result.machine
    fingerprint = {
        "stats": result.stats,
        "events": machine.sim.events_fired,
        "cycles": result.cycles,
        "registers": result.registers,
        "rng_draws": machine.sim.rng.draws,
        "instructions": result.total_instructions,
        "memory": result.memory.nonzero_words(),
        **extra,
    }
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return _sha256(canonical.encode("utf-8"))


def _litmus_key(config_name, test_name, stagger, seed):
    return f"{config_name}/{test_name}/{stagger[0]},{stagger[1]}/{seed}"


def litmus_digest(config_name, test_name, stagger, seed):
    config = _commit_heavy_config(config_name, seed, LITMUS_CHUNK)
    return _run_digest(run_litmus_cell(test_name, config, stagger))


def app_digest(config_name, app):
    config = NAMED_CONFIGS[config_name](seed=0)
    workload = build_app_workload(app, config, APP_INSTRUCTIONS, 0)
    result = run_workload(
        config, workload.programs, workload.address_space, record_history=True
    )
    return _run_digest(result)


def replay_digest(config_name, spec_name):
    recorded = record_run(REPLAY_SPECS[spec_name], config_name=config_name, seed=0)
    assert recorded.error is None, recorded.error
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        write_trace(recorded.trace, path)
        with open(path, "rb") as handle:
            return _sha256(handle.read())


def litmus_cases(test_names=LITMUS_NAMES, staggers=LITMUS_STAGGERS):
    for config_name in CONFIGS:
        for test_name in test_names:
            for stagger in staggers:
                for seed in LITMUS_SEEDS:
                    yield _litmus_key(config_name, test_name, stagger, seed), (
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


def replay_cases(spec_names=tuple(REPLAY_SPECS)):
    for config_name in CONFIGS:
        for spec_name in spec_names:
            yield f"{config_name}/{spec_name}", (
                lambda c=config_name, s=spec_name: replay_digest(c, s)
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
@pytest.mark.parametrize("test_name", LITMUS_NAMES)
def test_litmus_bit_identical(test_name):
    """Each litmus test, unstaggered, under all four configs and seeds."""
    cases = litmus_cases(test_names=(test_name,), staggers=(LITMUS_STAGGERS[0],))
    assert _mismatches("litmus", cases) == []


@pytest.mark.parametrize("stagger", LITMUS_STAGGERS[1:])
def test_litmus_bit_identical_across_staggers(stagger):
    """Staggered interleavings shift chunk boundaries; every test, config, seed."""
    cases = litmus_cases(staggers=(stagger,))
    assert _mismatches("litmus", cases) == []


@pytest.mark.parametrize("shard", range(APP_SHARDS))
def test_synthetic_bit_identical(shard):
    """One third of the synthetic applications under all four configs."""
    cases = app_cases(apps=ALL_APPS[shard::APP_SHARDS])
    assert _mismatches("apps", cases) == []


@pytest.mark.parametrize(
    "spec,name", [(spec, name) for name, spec in REPLAY_SPECS.items()]
)
def test_replay_traces_byte_identical(spec, name):
    """Recorded replay JSONL is byte-identical to the golden trace digests.

    The trace embeds the full protocol event stream, per-commit op logs,
    final memory and registers, the SC-check verdict, the stats snapshot
    and the RNG draw count, so any divergence changes its digest.
    """
    assert _mismatches("replay", replay_cases(spec_names=(name,))) == []


def test_golden_file_covers_every_case():
    """The golden file holds exactly the cases the tests above compute."""
    golden = _load_golden()
    expected = {
        "litmus": {key for key, __ in litmus_cases()},
        "apps": {key for key, __ in app_cases()},
        "replay": {key for key, __ in replay_cases()},
    }
    assert {section: set(golden[section]) for section in expected} == expected


# ----------------------------------------------------------------------
# Regeneration
# ----------------------------------------------------------------------
def generate():
    """Compute every digest of the golden file."""
    return {
        section: {key: compute() for key, compute in cases}
        for section, cases in (
            ("litmus", litmus_cases()),
            ("apps", app_cases()),
            ("replay", replay_cases()),
        )
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_interpreter_equivalence.py --write")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")

"""Golden digests for BulkSC runs on a bounded directory cache.

Every other golden runs the full-map directory, so the
``use_directory_cache=True`` path — its insertion-order signature
expansion and the Section 4.3.3 displacement protocol — is pinned only
here.  Three applications x BSCdypvt/BSCexact run at 1000 instructions
per thread on a 32-set 8-way directory cache, small enough to displace
(a 4-way one sends some applications into a displacement storm).

Each digest is the sha256 of the canonical JSON of the run's cycles,
sorted stats, registers and traffic breakdown.  Regenerate (only for an
intentional behaviour change) with

    PYTHONPATH=src python tests/test_directory_cache_golden.py --write
"""

import hashlib
import json
import os
import sys

import pytest

from repro.harness.runner import build_app_workload
from repro.params import NAMED_CONFIGS
from repro.system import run_workload

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "directory_cache_digests.json"
)

APPS = ("barnes", "radix", "radiosity")
CONFIGS = ("BSCdypvt", "BSCexact")
APP_INSTRUCTIONS = 1000
DIRECTORY_CACHE = {
    "use_directory_cache": True,
    "directory_cache_sets": 32,
    "directory_cache_ways": 8,
}


def _run(config_name, app):
    config = NAMED_CONFIGS[config_name](seed=0).with_bulksc(**DIRECTORY_CACHE)
    workload = build_app_workload(app, config, APP_INSTRUCTIONS, 0)
    return run_workload(
        config, workload.programs, workload.address_space, record_history=False
    )


def run_digest(config_name, app):
    result = _run(config_name, app)
    fingerprint = {
        "cycles": result.cycles,
        "stats": sorted(result.stats.items()),
        "registers": result.registers,
        "traffic": result.traffic_bytes,
    }
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cases():
    for config_name in CONFIGS:
        for app in APPS:
            yield f"{config_name}/{app}", (config_name, app)


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("key,case", list(cases()), ids=[k for k, __ in cases()])
def test_run_matches_golden(key, case):
    assert run_digest(*case) == _load_golden()[key]


def test_directory_cache_displaces():
    """The pinned geometry really takes the displacement path."""
    result = _run("BSCdypvt", APPS[0])
    assert result.stat("directory.displacements") > 0


def test_golden_file_covers_every_case():
    assert set(_load_golden()) == {key for key, __ in cases()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_directory_cache_golden.py --write")
    golden = {key: run_digest(*case) for key, case in cases()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")

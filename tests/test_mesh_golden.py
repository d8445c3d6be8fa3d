"""Golden digests for runs on the 2D-mesh interconnect.

Every other golden runs the default crossbar network.  ``MeshNetwork``
is the only override of ``Network.send``: it charges each message's
bytes to every link of its XY route.  This file pins three applications
x BSCdypvt/BSCexact/SC/RC at 1500 instructions per thread on the 2x4
mesh, so the per-link accounting and the distance-scaled latencies are
checked bit for bit under both the BulkSC and the baseline drivers.

Each digest is :func:`tests.test_interpreter_equivalence._run_digest`
of the run (stats, events, cycles, registers, RNG draws, instructions,
memory) with the per-class ``traffic_bytes`` and the sorted
``link_bytes`` added.  Regenerate (only for an intentional behaviour
change) with

    PYTHONPATH=src python tests/test_mesh_golden.py --write
"""

import json
import os
import sys
from dataclasses import replace

import pytest

from repro.harness.runner import build_app_workload
from repro.interconnect.mesh import MeshNetwork
from repro.params import NAMED_CONFIGS
from repro.system import run_workload

sys.path.insert(0, os.path.dirname(__file__))
from test_interpreter_equivalence import _run_digest  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "mesh_digests.json")

APPS = ("barnes", "radix", "sjbb2k")
CONFIGS = ("BSCdypvt", "BSCexact", "SC", "RC")
APP_INSTRUCTIONS = 1500
MESH = {"network_topology": "mesh", "mesh_rows": 2, "mesh_cols": 4}


def _run(config_name, app):
    config = replace(NAMED_CONFIGS[config_name](seed=0), **MESH).validate()
    workload = build_app_workload(app, config, APP_INSTRUCTIONS, 0)
    return run_workload(
        config, workload.programs, workload.address_space, record_history=False
    )


def run_digest(config_name, app):
    result = _run(config_name, app)
    network = result.machine.coherence.network
    return _run_digest(
        result,
        traffic_bytes=result.traffic_bytes,
        link_bytes=sorted([list(link), size] for link, size in network.link_bytes.items()),
    )


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


@pytest.mark.parametrize("config_name", CONFIGS)
def test_runs_on_the_mesh(config_name):
    """The pinned runs really route over the mesh's links."""
    network = _run(config_name, APPS[0]).machine.coherence.network
    assert isinstance(network, MeshNetwork)
    assert network.total_link_bytes() > 0


def test_golden_file_covers_every_case():
    assert set(_load_golden()) == {key for key, __ in cases()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_mesh_golden.py --write")
    golden = {key: run_digest(*case) for key, case in cases()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")

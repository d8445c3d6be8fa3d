"""Import cost follows use: a process loads only what its command runs.

Each case starts a fresh interpreter, does one thing, and prints
``sorted(sys.modules)``.  A served component (``repro serve`` and the
node/arbiter server modules) must load neither the simulator
(``repro.system``), the harness, the contract checkers nor networkx; the
harness loads the simulator but not networkx, which only the
graph-building analyses use; a run summary loads no replay module.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MARKER = "--sys.modules--"

CASES = {
    "serve": (
        "import runpy, sys\n"
        "sys.argv = ['repro', 'serve', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
    ),
    "service": "import repro.service.node, repro.service.arbiter_server\n",
    "harness": "import repro.harness.experiments\n",
    "report": "import repro.tools.report\n",
}

SERVICE_FORBIDDEN = ("networkx", "repro.system", "repro.harness", "repro.contracts")


def loaded_modules(case: str) -> set:
    code = CASES[case] + (
        f"import json, sys\nprint({MARKER!r})\nprint(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    return set(json.loads(out.split(MARKER, 1)[1]))


@pytest.mark.parametrize("case", ["serve", "service"])
def test_served_component_loads_no_simulator(case):
    modules = loaded_modules(case)
    assert "repro.service" in modules
    assert [name for name in SERVICE_FORBIDDEN if name in modules] == []


def test_serve_help_prints_usage():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--help"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert "--role" in out


def test_harness_loads_no_networkx():
    modules = loaded_modules("harness")
    assert "repro.system" in modules
    assert "networkx" not in modules


def test_run_summary_loads_no_replay():
    # `repro run` prints its summary through repro.tools.report alone.
    modules = loaded_modules("report")
    assert "repro.system" in modules
    assert "repro.replay" not in modules


def test_every_top_level_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    from repro import Machine, RunResult, run_workload  # noqa: F401
    from repro.system import run_workload as direct

    assert repro.run_workload is direct
    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018

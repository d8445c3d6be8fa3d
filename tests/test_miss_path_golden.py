"""Golden digests for the BulkSC miss path with history recording off.

Every app digest in ``tests/golden/bulksc_digests.json`` runs with
history on, so the chunk op log is always read there and the default
8 MB L2 almost never evicts.  This file pins the runs those digests
miss:

* ``default``: the 13 applications x BSCbase/BSCdypvt/BSCexact/BSCstpvt
  at 1500 instructions per thread, history off, default caches;
* ``small``: the same runs on a 2 KB 2-way L1 and a 32 KB 4-way L2, so
  fills evict and inclusive L2 evictions back-invalidate L1 lines;
* ``small_history``: the small-cache runs with history on;
* ``tracer``: one small-cache, history-off run with a ``ChunkTracer``
  subscribed; the tracer's rendered timeline joins the fingerprint.

Each digest is :func:`tests.test_interpreter_equivalence._run_digest`
of the run (stats, events, cycles, registers, RNG draws, instructions,
memory).  Regenerate (only for an intentional behaviour change) with

    PYTHONPATH=src python tests/test_miss_path_golden.py --write
"""

import hashlib
import json
import os
import sys
from dataclasses import replace

import pytest

from repro.harness.runner import ALL_APPS, build_app_workload
from repro.params import NAMED_CONFIGS
from repro.system import Machine, run_workload
from repro.tools.chunk_trace import ChunkTracer

sys.path.insert(0, os.path.dirname(__file__))
from test_interpreter_equivalence import CONFIGS, _run_digest  # noqa: E402

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "miss_path_digests.json"
)

APP_INSTRUCTIONS = 1500
SMALL_L1 = {"size_bytes": 2 * 1024, "associativity": 2}
SMALL_L2 = {"size_bytes": 32 * 1024, "associativity": 4}
TRACER_CASE = ("BSCdypvt", "ocean")

#: section -> (small caches, record history)
SECTIONS = {
    "default": (False, False),
    "small": (True, False),
    "small_history": (True, True),
}


def _config(config_name, small):
    config = NAMED_CONFIGS[config_name](seed=0)
    if not small:
        return config
    mem = config.memory
    return replace(
        config,
        memory=replace(
            mem, l1=replace(mem.l1, **SMALL_L1), l2=replace(mem.l2, **SMALL_L2)
        ),
    )


def app_digest(config_name, app, small, history):
    config = _config(config_name, small)
    workload = build_app_workload(app, config, APP_INSTRUCTIONS, 0)
    result = run_workload(
        config, workload.programs, workload.address_space, record_history=history
    )
    return _run_digest(result)


def tracer_digest():
    config_name, app = TRACER_CASE
    config = _config(config_name, small=True)
    workload = build_app_workload(app, config, APP_INSTRUCTIONS, 0)
    machine = Machine(
        config, list(workload.programs), workload.address_space,
        record_history=False,
    )
    tracer = ChunkTracer.attach(machine)
    result = machine.run()
    assert tracer.count("commit") > 0
    rendered = tracer.render(limit=10**9)
    return _run_digest(
        result, tracer=hashlib.sha256(rendered.encode("utf-8")).hexdigest()
    )


def app_cases(section, configs=CONFIGS):
    small, history = SECTIONS[section]
    for config_name in configs:
        for app in ALL_APPS:
            yield f"{config_name}/{app}", (
                lambda c=config_name, a=app: app_digest(c, a, small, history)
            )


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_apps_match_golden(section, config_name):
    """All 13 applications under one config, in one section."""
    golden = _load_golden()[section]
    mismatches = [
        key
        for key, compute in app_cases(section, configs=(config_name,))
        if golden.get(key) != compute()
    ]
    assert mismatches == []


def test_small_caches_evict():
    """The small-cache sections really take the L1 and L2 eviction paths."""
    config = _config("BSCdypvt", small=True)
    workload = build_app_workload("ocean", config, APP_INSTRUCTIONS, 0)
    result = run_workload(
        config, workload.programs, workload.address_space, record_history=False
    )
    assert result.stats.get("coherence.l1_evictions", 0) > 0
    assert result.stats.get("coherence.l2_evictions", 0) > 0


def test_tracer_run_matches_golden():
    assert tracer_digest() == _load_golden()["tracer"]


def test_golden_file_covers_every_case():
    golden = _load_golden()
    assert set(golden) == set(SECTIONS) | {"tracer"}
    for section in SECTIONS:
        assert set(golden[section]) == {key for key, __ in app_cases(section)}


def generate():
    """Compute every digest of the golden file."""
    golden = {
        section: {key: compute() for key, compute in app_cases(section)}
        for section in SECTIONS
    }
    golden["tracer"] = tracer_digest()
    return golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_miss_path_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")

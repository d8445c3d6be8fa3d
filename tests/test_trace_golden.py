"""Golden pins for recorded traces on fault, crash and tracer paths.

``tests/golden/bulksc_digests.json`` pins the replay JSONL of fault-free
SB/MP/barnes runs only.  This file pins the sha256 of the recorded JSONL
on the paths those cases never reach:

* ``record_run`` with ``drop,delay,dup`` faults on SB and barnes, under
  BSCdypvt and BSCexact (fault records, retries, duplicate deliveries);
* a scripted ``grant:1:arbiter0`` crash (``arb.*`` recovery records and
  grant epochs);
* ``TraceRecorder.attach`` on a hand-built two-directory machine with a
  distributed arbiter, crashing ``arbiter1`` and the ``global`` G-arbiter;
* ``ChunkTracer.as_trace()`` and ``render()`` for one run.

Each case also asserts that the path it exists for was really taken, so
a workload change cannot silently turn a pin into a fault-free one.
Regenerate (only for an intentional behaviour change) with

    PYTHONPATH=src python tests/test_trace_golden.py --write
"""

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace

import pytest

from repro.faults.injector import ScriptedFaultInjector
from repro.faults.plan import crash_script_from
from repro.params import ArbiterTopology, bsc_dypvt
from repro.replay.recorder import TraceRecorder, record_run
from repro.replay.schema import make_header, write_trace
from repro.replay.workload import app_spec, build_workload, litmus_spec
from repro.system import Machine
from repro.tools.chunk_trace import ChunkTracer

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "trace_digests.json")

SB = litmus_spec("SB", (1, 1))
MP = litmus_spec("MP", (1, 60))
BARNES = app_spec("barnes", 600, 0)
RADIX = app_spec("radix", 600, 0)
FAULTS = "drop,delay,dup"
FAULT_RATE = 0.2


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trace_sha256(trace) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        write_trace(trace, path)
        with open(path, "rb") as handle:
            return _sha256(handle.read())


def _events(trace) -> set:
    return {record.ev for record in trace.records}


def faulted_pin(config_name: str, spec: dict) -> dict:
    recorded = record_run(
        spec, config_name=config_name, seed=0, faults=FAULTS, rate=FAULT_RATE
    )
    assert recorded.error is None, recorded.error
    assert "fault" in _events(recorded.trace)
    return {"jsonl_sha256": _trace_sha256(recorded.trace)}


def crash_pin() -> dict:
    recorded = record_run(MP, config_name="BSCdypvt", seed=0,
                          crashes=["grant:1:arbiter0"])
    assert recorded.error is None, recorded.error
    assert {"arb.crash", "arb.reconstruct", "arb.recovered"} <= _events(
        recorded.trace
    )
    return {"jsonl_sha256": _trace_sha256(recorded.trace)}


def distributed_config():
    config = replace(bsc_dypvt(seed=0), num_directories=2)
    return config.with_bulksc(
        arbiter_topology=ArbiterTopology.DISTRIBUTED
    ).validate()


def distributed_pin(crash: str) -> dict:
    """A recorder attached by hand to a two-directory distributed machine."""
    config = distributed_config()
    programs, space, __ = build_workload(RADIX, config)
    injector = ScriptedFaultInjector(
        crash_script=crash_script_from([crash]), label=f"dist/{crash}"
    )
    machine = Machine(
        config, programs, space, record_history=True, fault_injector=injector
    )
    header = make_header(
        kind="run", config="BSCdypvt-dist2", seed=0, workload=RADIX,
        crashes=[crash],
    )
    recorder = TraceRecorder.attach(machine, header)
    result = machine.run()
    trace = recorder.finish(result=result)
    assert trace.footer["sc_ok"] is True
    assert injector.crashes_fired == 1
    assert "arb.crash" in _events(trace)
    return {"jsonl_sha256": _trace_sha256(trace)}


def chunk_tracer_pin() -> dict:
    config = bsc_dypvt(seed=1)
    programs, space, __ = build_workload(RADIX, config)
    machine = Machine(config, programs, space, record_history=True)
    tracer = ChunkTracer.attach(machine)
    machine.run()
    assert tracer.count("squash") > 0
    return {
        "as_trace_sha256": _trace_sha256(tracer.as_trace("BSCdypvt", seed=1)),
        "render_sha256": _sha256(tracer.render().encode("utf-8")),
    }


TRACE_CASES = {
    "faults/BSCdypvt/sb": lambda: faulted_pin("BSCdypvt", SB),
    "faults/BSCdypvt/barnes": lambda: faulted_pin("BSCdypvt", BARNES),
    "faults/BSCexact/sb": lambda: faulted_pin("BSCexact", SB),
    "faults/BSCexact/barnes": lambda: faulted_pin("BSCexact", BARNES),
    "crash/grant-1-arbiter0": crash_pin,
    "distributed/arbiter1": lambda: distributed_pin("grant:1:arbiter1"),
    "distributed/global": lambda: distributed_pin("commit-request:1:global"),
    "chunk_tracer/radix": chunk_tracer_pin,
}


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_trace_matches_golden(case):
    assert TRACE_CASES[case]() == _load_golden()[case]


def test_golden_file_covers_every_case():
    assert set(_load_golden()) == set(TRACE_CASES)


def generate():
    """Compute every pin of the golden file."""
    return {case: TRACE_CASES[case]() for case in sorted(TRACE_CASES)}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_trace_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")

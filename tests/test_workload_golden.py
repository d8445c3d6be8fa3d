"""Golden digests of the generated application programs.

Every other golden file pins what a simulation *does* with a workload;
this one pins the workload itself, so a change to the program builder,
the op encoding or the random draws that feed the generator shows up
here, before any run could mask or amplify it.

``tests/golden/workload_digests.json`` holds one sha256 per
(application, seed, instructions per thread) over every thread's encoded
columns (``kinds``, ``args``, ``regs``, ``vspecs``), its side-table ops
(by ``repr``), its dynamic instruction total and its memory-op total.
The cases are the 13 applications x seeds 0 and 1 x 1000, 1500 and
10000 instructions per thread on the paper's machine geometry.  The
generator works in 1000-instruction intervals, so 1000 and 1500 give
the same programs; 10000 adds multi-interval programs, where barrier
phases, the private-window drift and (in the apps that take a lock
every 10 intervals) lock critical sections show.
The generator draws through :class:`repro.engine.rng.DeterministicRng`,
so these digests also pin its stream draw for draw on every supported
CPython.

Regenerate (only for an intentional change to the generated programs)
with

    PYTHONPATH=src python tests/test_workload_golden.py --write
"""

import hashlib
import json
import os
import sys

import pytest

from repro.harness.runner import ALL_APPS, generate_app_workload
from repro.params import NAMED_CONFIGS

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "workload_digests.json"
)

SEEDS = (0, 1)
SIZES = (1000, 1500, 10000)


def _generate(app, seed, instructions):
    """``app``'s workload generated afresh (bypassing the process memo)."""
    config = NAMED_CONFIGS["BSCdypvt"](seed=0)
    return generate_app_workload.__wrapped__(
        app,
        config.num_processors,
        config.memory.words_per_line,
        config.num_directories,
        instructions,
        seed,
    )


def workload_digest(app, seed, instructions):
    threads = [
        {
            "kinds": program.kinds,
            "args": program.args,
            "regs": program.regs,
            "vspecs": program.vspecs,
            "side": [[pc, repr(op)] for pc, op in sorted(program.side_ops.items())],
            "instructions": program.total_instructions,
            "memory_ops": program.memory_op_count,
        }
        for program in _generate(app, seed, instructions).programs
    ]
    canonical = json.dumps(threads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _key(app, seed, instructions):
    return f"{app}/{seed}/{instructions}"


def cases():
    for app in ALL_APPS:
        for seed in SEEDS:
            for instructions in SIZES:
                yield _key(app, seed, instructions), (app, seed, instructions)


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("app", ALL_APPS)
def test_generated_programs_bit_identical(app):
    """Each app's programs, at both seeds and sizes, match the golden."""
    golden = _load_golden()
    mismatches = [
        key
        for key, args in cases()
        if args[0] == app and golden.get(key) != workload_digest(*args)
    ]
    assert mismatches == []


def test_golden_file_covers_every_case():
    assert set(_load_golden()) == {key for key, __ in cases()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_workload_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {key: workload_digest(*args) for key, args in cases()},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")

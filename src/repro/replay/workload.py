"""Workload specs: pure-data descriptions of what a trace ran.

A trace header must make its run reconstructible, so the workload is
stored as a small JSON dict rather than live program objects:

* ``{"kind": "litmus", "test": "SB", "stagger": [1, 60]}`` — one litmus
  test with the chaos/litmus harness's compute-stagger preamble;
* ``{"kind": "app", "app": "fft", "instructions": 2000, "seed": 0}`` —
  a bundled synthetic application.

Both accept ``"dropped_threads": [..]``, used by the minimizer: a
dropped thread's program is replaced with an empty one, shrinking the
repro while keeping processor numbering (and thus addresses and labels)
stable.

:func:`build_workload` is the one program builder behind the chaos,
campaign, ``litmus`` and perf harnesses — same address allocation
order, same stagger preamble — so a spec recorded from any of them
reproduces the very same programs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.isa import Compute
from repro.cpu.thread import ThreadProgram
from repro.errors import ProgramError
from repro.memory.address import AddressMap, AddressSpace
from repro.params import SystemConfig

#: The compute-stagger preambles a litmus grid sweeps.  Thread ``i``
#: starts with ``Compute(stagger[i % len(stagger)])``, so each stagger
#: shifts the threads' relative start and thus the interleaving.
LITMUS_STAGGERS: Tuple[Tuple[int, int], ...] = ((1, 1), (1, 60), (60, 1), (200, 7))
#: The trimmed grid of quick (CI smoke) runs and campaign shorthands.
QUICK_LITMUS_STAGGERS: Tuple[Tuple[int, int], ...] = ((1, 1), (60, 1))


def litmus_spec(
    test_name: str,
    stagger: Sequence[int],
    dropped_threads: Sequence[int] = (),
) -> dict:
    spec = {"kind": "litmus", "test": test_name, "stagger": list(stagger)}
    if dropped_threads:
        spec["dropped_threads"] = sorted(dropped_threads)
    return spec


def app_spec(
    app: str,
    instructions: int,
    seed: int,
    dropped_threads: Sequence[int] = (),
) -> dict:
    spec = {"kind": "app", "app": app, "instructions": instructions, "seed": seed}
    if dropped_threads:
        spec["dropped_threads"] = sorted(dropped_threads)
    return spec


def workload_name(spec: dict) -> str:
    if spec.get("kind") == "litmus":
        stagger = "-".join(str(s) for s in spec.get("stagger", ()))
        name = f"litmus:{spec['test']}/g{stagger}" if stagger else f"litmus:{spec['test']}"
    elif spec.get("kind") == "app":
        name = f"app:{spec['app']}/i{spec['instructions']}"
    elif spec.get("kind") == "contracts":
        # Static contract check of a recorded trace (no simulation).
        name = f"contracts:{spec.get('component', 'all')}@{spec.get('trace')}"
    else:
        name = f"workload:{spec}"
    dropped = spec.get("dropped_threads")
    if dropped:
        name += f"/drop{','.join(str(t) for t in dropped)}"
    return name


def select_litmus_tests(name: str = "all") -> list:
    """Every litmus test for ``"all"``, else the one test called ``name``.

    Raises :class:`~repro.errors.ProgramError` naming the known tests
    for an unknown name.  The suite is looked up at call time, so a
    patched :func:`repro.verify.litmus.all_litmus_tests` reaches every
    caller.
    """
    from repro.verify import litmus

    tests = litmus.all_litmus_tests()
    if name == "all":
        return tests
    chosen = [test for test in tests if test.name == name]
    if not chosen:
        known = ", ".join(test.name for test in tests)
        raise ProgramError(f"unknown litmus test {name!r} (known: {known})")
    return chosen


def litmus_addresses(test, config: SystemConfig) -> Tuple[AddressSpace, Dict[str, int]]:
    """Allocate the test's variables exactly as the dynamic harness does."""
    space = AddressSpace(
        AddressMap(config.memory.words_per_line, config.num_directories)
    )
    addrs = {
        var: space.allocate(var, config.memory.words_per_line).start_word
        for var in test.variables
    }
    return space, addrs


def build_workload(
    spec: dict, config: SystemConfig
) -> Tuple[List[ThreadProgram], AddressSpace, Optional[object]]:
    """Instantiate a workload spec: ``(programs, address_space, litmus_test)``.

    The third element is the :class:`~repro.verify.litmus.LitmusTest`
    when the spec is a litmus workload (so callers can evaluate the
    forbidden-outcome predicate), else ``None``.
    """
    kind = spec.get("kind")
    dropped = set(spec.get("dropped_threads", ()))
    if kind == "litmus":
        if spec["test"] == "all":
            raise ProgramError("a litmus workload names one test, not 'all'")
        (test,) = select_litmus_tests(spec["test"])
        space, addrs = litmus_addresses(test, config)
        stagger = list(spec.get("stagger", ()))
        programs = []
        for i, ops in enumerate(test.build(addrs)):
            if i in dropped:
                programs.append(ThreadProgram([], name=f"t{i}-dropped"))
            elif stagger:
                programs.append(
                    ThreadProgram(
                        [Compute(stagger[i % len(stagger)])] + ops, name=f"t{i}"
                    )
                )
            else:
                programs.append(ThreadProgram(ops, name=f"t{i}"))
        return programs, space, test
    if kind == "app":
        from repro.harness.runner import ALL_APPS, build_app_workload

        if spec["app"] not in ALL_APPS:
            raise ProgramError(f"unknown application {spec['app']!r}")
        workload = build_app_workload(
            spec["app"], config, spec["instructions"], spec["seed"]
        )
        programs = list(workload.programs)
        for i in sorted(dropped):
            if 0 <= i < len(programs):
                programs[i] = ThreadProgram([], name=f"t{i}-dropped")
        return programs, workload.address_space, None
    raise ProgramError(f"unknown workload kind {kind!r} in spec {spec!r}")

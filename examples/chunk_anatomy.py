#!/usr/bin/env python3
"""Anatomy of BulkSC under contention: squashes and forward progress.

Two experiments on hand-built programs:

1. **Lock ping-pong** (paper Figure 6): several processors speculate
   through the same critical section inside their chunks; the first
   commit wins and squashes the rest, who replay and find the lock held.
   The counter still ends exactly right — SC from bulk enforcement.

2. **Pathological conflict loop** (paper Section 3.3): every processor
   hammers the same cache line, forcing repeated squashes.  Watch the
   chunking policy shrink chunks exponentially and, if that is not
   enough, fall back to pre-arbitration — the two forward-progress
   measures of the paper.

Run:  python examples/chunk_anatomy.py
"""

from repro.cpu.isa import Compute, Load, Store
from repro.cpu.thread import ThreadProgram
from repro.memory.address import AddressMap, AddressSpace
from repro.params import bsc_dypvt
from repro.system import Machine, run_workload
from repro.tools.chunk_trace import ChunkTracer
from repro.verify.sc_checker import check_sequential_consistency
from repro.workloads import lock_contention_workload


def lock_ping_pong() -> None:
    print("== 1. lock ping-pong (Figure 6 semantics) ==")
    config = bsc_dypvt()
    workload = lock_contention_workload(
        config, increments_per_thread=6, think_time=20
    )
    result = run_workload(config, workload.programs, workload.address_space)
    counter = workload.metadata["counter_addrs"][0]
    squashes = sum(result.stat(f"proc{p}.chunk_squashes") for p in range(8))
    spins = sum(result.stat(f"proc{p}.lock_spin_blocks") for p in range(8))
    check = check_sequential_consistency(result.history)
    print(f"  final counter        : {result.memory.peek(counter)} "
          f"(expected {workload.metadata['expected_total']})")
    print(f"  chunk squashes       : {squashes:.0f} (losers of commit races)")
    print(f"  in-chunk lock spins  : {spins:.0f} (woken by the releaser's commit)")
    print(f"  SC witness           : {'valid' if check.ok else check.reason}")
    print()


def conflict_storm() -> None:
    print("== 2. conflict storm (forward progress, Section 3.3) ==")
    config = bsc_dypvt().with_bulksc(
        chunk_size_instructions=200, prearbitrate_after_squashes=3
    )
    space = AddressSpace(
        AddressMap(config.memory.words_per_line, config.num_directories)
    )
    space.allocate("hot", 64)
    programs = []
    for proc in range(4):
        ops = [Compute(3 + proc)]
        for i in range(40):
            ops.append(Load(f"r{i}", 0))
            ops.append(Store(0, proc * 100 + i))
            ops.append(Compute(5))
        programs.append(ThreadProgram(ops, name=f"hammer{proc}"))
    machine = Machine(config, programs, space)
    tracer = ChunkTracer.attach(machine)
    result = machine.run()
    check = check_sequential_consistency(result.history)
    print(f"  total cycles         : {result.cycles:.0f}")
    for driver in machine.drivers[:4]:
        print(
            f"  proc {driver.proc}: commits={driver.chunk_commits:3d} "
            f"squashes={driver.chunk_squashes:3d} "
            f"shrinks={driver.policy.shrinks:2d} "
            f"pre-arbitrations={driver.policy.prearbitrations}"
        )
    print(f"  SC witness           : {'valid' if check.ok else check.reason}")
    print("  (exponential shrink makes small chunks slip between conflicts;")
    print("   pre-arbitration guarantees the stragglers commit)")
    print()
    print("  first chunk transitions (ChunkTracer):")
    for line in tracer.render(limit=12).splitlines():
        print("   ", line)


def main() -> None:
    lock_ping_pong()
    conflict_storm()


if __name__ == "__main__":
    main()

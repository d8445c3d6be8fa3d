"""Static cross-thread conflict graph and Shasha–Snir cycle analysis.

Two accesses *conflict* when they are in different threads, touch the
same word, and at least one writes.  Under BulkSC a conflict between
concurrent chunks is what forces a squash; under plain SC a *cycle*
mixing program-order edges and conflict edges is what makes an
execution order matter at all (Shasha & Snir's critical cycles — the
op pairs on such cycles are exactly the ones whose program order the
hardware must enforce).

This pass is purely static: it never runs the simulator.  Addresses in
the op IR are concrete, so the conflict edge set is **exact** — every
conflict the simulator can dynamically observe between two threads is
an edge here (the cross-validation test in ``tests/test_analysis_outcomes.py``
holds the suite to that).

Cycle witnesses are emitted in the same format as the dynamic checker
(:func:`repro.verify.serializability.format_cycle_witness`), so a
static prediction and a recorded violation diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.analysis.footprint import Access, ProgramAnalysis, analyze_programs
from repro.cpu.isa import Barrier, Io, Op
from repro.cpu.thread import ThreadProgram
from repro.verify.serializability import CycleWitnessEdge, format_cycle_witness

if TYPE_CHECKING:
    import networkx as nx

#: Safety bounds for cycle enumeration: programs are straight-line and
#: small, but simple-cycle counts can still explode on dense graphs.
MAX_CYCLE_LENGTH = 8
MAX_REPORTED_CYCLES = 64


@dataclass(frozen=True)
class ConflictEdge:
    """A conflicting cross-thread access pair."""

    a: Access
    b: Access
    addr: int
    #: "WW", "WR" (a writes, b reads) or "RW" (a reads, b writes).
    kind: str
    #: Both endpoints are synchronization traffic (lock words, spin flags).
    sync: bool

    def describe(self) -> str:
        tag = " [sync]" if self.sync else ""
        return (
            f"{self.kind} @{self.addr:#x}: {self.a.describe()} "
            f"<-> {self.b.describe()}{tag}"
        )


@dataclass(frozen=True)
class CriticalCycle:
    """A Shasha–Snir critical cycle: an SC violation waiting to happen.

    ``nodes`` walks the cycle in order; ``edges`` is the matching
    dynamic-checker-format witness; ``delay_pairs`` are the program-order
    op pairs on the cycle — the orderings the hardware must enforce
    (and, under BulkSC, the chunk boundaries that will conflict if the
    two ops land in concurrently-executing chunks).
    """

    nodes: Tuple[Tuple[int, int], ...]
    edges: Tuple[CycleWitnessEdge, ...]
    delay_pairs: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...]

    def describe(self) -> str:
        return format_cycle_witness(self.edges)


@dataclass
class StaticConflictReport:
    """Everything the conflict-graph pass derives from a program."""

    num_threads: int
    num_accesses: int
    edges: List[ConflictEdge]
    cycles: List[CriticalCycle]
    #: Program-order pairs appearing on some critical cycle (delay set).
    delay_set: Set[Tuple[Tuple[int, int], Tuple[int, int]]]
    #: Addresses involved in at least one non-sync conflict, with counts —
    #: the predicted squash hotspots, hottest first.
    hot_addrs: List[Tuple[int, int]]
    warnings: List[str] = field(default_factory=list)
    #: True when cycle enumeration hit its bound (cycles list incomplete).
    cycles_truncated: bool = False

    @property
    def num_conflict_edges(self) -> int:
        return len(self.edges)

    @property
    def data_edges(self) -> List[ConflictEdge]:
        return [e for e in self.edges if not e.sync]


def _conflict_edges(analysis: ProgramAnalysis) -> List[ConflictEdge]:
    by_addr: Dict[int, List[Access]] = {}
    for access in analysis.all_accesses():
        by_addr.setdefault(access.addr, []).append(access)
    edges: List[ConflictEdge] = []
    for addr in sorted(by_addr):
        group = by_addr[addr]
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if a.thread == b.thread:
                    continue
                if not (a.is_write or b.is_write):
                    continue
                if a.is_write and b.is_write:
                    kind = "WW"
                elif a.is_write:
                    kind = "WR"
                else:
                    kind = "RW"
                edges.append(
                    ConflictEdge(
                        a=a, b=b, addr=addr, kind=kind,
                        sync=a.is_sync and b.is_sync,
                    )
                )
    return edges


def _node_label(node: Tuple[int, int]) -> str:
    return f"t{node[0]}#{node[1]}"


def _mixed_graph(
    analysis: ProgramAnalysis, edges: Sequence[ConflictEdge]
) -> "nx.DiGraph":
    """Program-order edges (directed) + conflict edges (both directions)."""
    import networkx as nx

    graph = nx.DiGraph()
    for fp in analysis.footprints:
        previous = None
        for access in fp.accesses:
            graph.add_node(access.node)
            if previous is not None:
                graph.add_edge(previous, access.node, kind="program", addrs=())
            previous = access.node
    for edge in edges:
        for src, dst in ((edge.a.node, edge.b.node), (edge.b.node, edge.a.node)):
            existing = graph.get_edge_data(src, dst)
            if existing is not None and existing["kind"] == "program":
                continue  # program order subsumes the conflict direction
            addrs = tuple(
                sorted(set((existing["addrs"] if existing else ()) + (edge.addr,)))
            )
            graph.add_edge(src, dst, kind="conflict", addrs=addrs)
    return graph


def _critical_cycles(
    analysis: ProgramAnalysis, edges: Sequence[ConflictEdge]
) -> Tuple[List[CriticalCycle], bool]:
    graph = _mixed_graph(analysis, edges)
    cycles: List[CriticalCycle] = []
    seen: Set[FrozenSet[Tuple[int, int]]] = set()
    truncated = False
    import networkx as nx

    for raw in nx.simple_cycles(graph, length_bound=MAX_CYCLE_LENGTH):
        if len(raw) < 2 or len({t for t, __ in raw}) < 2:
            continue
        # Walk the cycle and classify its edges.
        pairs = list(zip(raw, raw[1:] + raw[:1]))
        witness = []
        delay = []
        program_threads = set()
        for src, dst in pairs:
            data = graph[src][dst]
            witness.append(
                CycleWitnessEdge(
                    src=_node_label(src),
                    dst=_node_label(dst),
                    kind=data["kind"],
                    addrs=data["addrs"],
                )
            )
            if data["kind"] == "program":
                delay.append((src, dst))
                program_threads.add(src[0])
        # A critical cycle needs at least one program-order segment —
        # a pure conflict-edge cycle (e.g. the trivial 2-cycle every
        # bidirectional conflict edge induces) constrains nothing.
        # One thread's program edge suffices: coherence shapes like
        # CoRR hinge on reordering within a single reader.
        if not program_threads:
            continue
        key = frozenset(raw)
        if key in seen:
            continue  # same node set reached via a rotated/reflected walk
        seen.add(key)
        cycles.append(
            CriticalCycle(
                nodes=tuple(raw),
                edges=tuple(witness),
                delay_pairs=tuple(delay),
            )
        )
        if len(cycles) >= MAX_REPORTED_CYCLES:
            truncated = True
            break
    cycles.sort(key=lambda c: (len(c.nodes), c.nodes))
    return cycles, truncated


def build_conflict_report(
    programs: Sequence[ThreadProgram],
    analysis: ProgramAnalysis = None,
) -> StaticConflictReport:
    """Run the full conflict-graph pass over a multi-threaded program."""
    if analysis is None:
        analysis = analyze_programs(programs)
    edges = _conflict_edges(analysis)
    cycles, truncated = _critical_cycles(analysis, edges)
    delay_set: Set[Tuple[Tuple[int, int], Tuple[int, int]]] = set()
    for cycle in cycles:
        delay_set.update(cycle.delay_pairs)
    counts: Dict[int, int] = {}
    for edge in edges:
        if not edge.sync:
            counts[edge.addr] = counts.get(edge.addr, 0) + 1
    hot = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return StaticConflictReport(
        num_threads=analysis.num_threads,
        num_accesses=len(analysis.all_accesses()),
        edges=edges,
        cycles=cycles,
        delay_set=delay_set,
        hot_addrs=hot,
        warnings=analysis.warnings,
        cycles_truncated=truncated,
    )


# ----------------------------------------------------------------------
# Chunk-boundary prediction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChunkConflict:
    """Two statically-chunked regions that conflict if concurrent."""

    thread_a: int
    chunk_a: int
    thread_b: int
    chunk_b: int
    addrs: Tuple[int, ...]

    def describe(self) -> str:
        where = ",".join(f"{a:#x}" for a in self.addrs)
        return (
            f"t{self.thread_a}#c{self.chunk_a} x "
            f"t{self.thread_b}#c{self.chunk_b} @{where}"
        )


def _static_chunks(
    ops: Sequence[Op], chunk_size: int
) -> List[Tuple[int, int]]:
    """Chunk boundaries as (start_op, end_op) half-open ranges.

    Mirrors :class:`repro.core.chunking.ChunkingPolicy`: a chunk closes
    once its instruction budget is met, and barriers / I/O force a
    boundary (paper §4.1.3 — neither can execute speculatively inside a
    chunk).
    """
    chunks: List[Tuple[int, int]] = []
    start = 0
    budget = 0
    for index, op in enumerate(ops):
        if isinstance(op, (Barrier, Io)):
            if index > start:
                chunks.append((start, index))
            chunks.append((index, index + 1))
            start = index + 1
            budget = 0
            continue
        budget += op.instruction_count
        if budget >= chunk_size:
            chunks.append((start, index + 1))
            start = index + 1
            budget = 0
    if start < len(ops):
        chunks.append((start, len(ops)))
    return chunks


def predict_chunk_conflicts(
    programs: Sequence[ThreadProgram],
    chunk_size: int,
    analysis: ProgramAnalysis = None,
) -> List[ChunkConflict]:
    """Which chunk pairs will conflict under a given chunking policy.

    Every returned pair is a potential squash if the two chunks execute
    concurrently; disjoint pairs are guaranteed conflict-free no matter
    how commits interleave.
    """
    if analysis is None:
        analysis = analyze_programs(programs)
    per_thread: List[List[Tuple[int, FrozenSet[int], FrozenSet[int]]]] = []
    for thread, program in enumerate(programs):
        footprint = analysis.footprints[thread]
        by_index: Dict[int, Access] = {a.op_index: a for a in footprint.accesses}
        chunks = []
        for chunk_id, (start, end) in enumerate(
            _static_chunks(list(program), chunk_size)
        ):
            reads: Set[int] = set()
            writes: Set[int] = set()
            for op_index in range(start, end):
                access = by_index.get(op_index)
                if access is None:
                    continue
                if access.is_read:
                    reads.add(access.addr)
                if access.is_write:
                    writes.add(access.addr)
            chunks.append((chunk_id, frozenset(reads), frozenset(writes)))
        per_thread.append(chunks)
    conflicts: List[ChunkConflict] = []
    for ta in range(len(per_thread)):
        for tb in range(ta + 1, len(per_thread)):
            for ca, reads_a, writes_a in per_thread[ta]:
                for cb, reads_b, writes_b in per_thread[tb]:
                    clash = (
                        (writes_a & writes_b)
                        | (writes_a & reads_b)
                        | (reads_a & writes_b)
                    )
                    if clash:
                        conflicts.append(
                            ChunkConflict(
                                thread_a=ta, chunk_a=ca,
                                thread_b=tb, chunk_b=cb,
                                addrs=tuple(sorted(clash)),
                            )
                        )
    return conflicts

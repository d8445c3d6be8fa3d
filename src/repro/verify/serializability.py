"""Chunk conflict-graph analytics.

The SC witness checker (:mod:`repro.verify.sc_checker`) and the
atomicity checker validate a recorded execution.  This module *analyzes*
it: it rebuilds the classic precedence graph over committed chunks — an
edge A → B for every read-write, write-read, or write-write conflict
where A's block precedes B's, plus per-processor program-order edges —
and derives structural facts the paper's design discussion turns on:

* **conflict density** — how many chunk pairs truly conflict (what the
  arbiter and signatures must police; radix is dense, water is empty);
* **serialization depth** — the longest dependency chain, i.e. the
  inherent lower bound on chunk-serial execution no matter how much the
  machine overlaps commits;
* **width** — chunks divided by depth, the available chunk parallelism.

Because edges follow the recorded visibility order, the graph is acyclic
whenever the history is well-formed; :func:`check_conflict_serializability`
asserts that as a consistency check (a cycle would mean the history
itself is corrupt, e.g. interleaved chunk blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.verify.history import ExecutionHistory

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class CycleWitnessEdge:
    """One edge of a cycle witness, in a format shared with the static
    analyzer (:mod:`repro.analysis.conflict_graph`) so dynamic and static
    witnesses are directly diffable."""

    src: str
    dst: str
    kind: str  # "program" or "conflict"
    #: Word addresses the two endpoints conflict on (empty for program edges).
    addrs: Tuple[int, ...] = ()

    def describe(self) -> str:
        if self.addrs:
            where = ",".join(f"{a:#x}" for a in self.addrs)
            return f"{self.src} -[{self.kind} @{where}]-> {self.dst}"
        return f"{self.src} -[{self.kind}]-> {self.dst}"

    def payload(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "kind": self.kind,
            "addrs": list(self.addrs),
        }


def format_cycle_witness(edges: Sequence[CycleWitnessEdge]) -> str:
    """Render a full cycle witness, one edge per line.

    Both the dynamic checker (this module) and the static analyzer emit
    cycles through this function, so a static prediction can be compared
    line-by-line against a recorded violation.
    """
    return "\n".join("  " + edge.describe() for edge in edges)


def witness_edges(
    graph: "nx.DiGraph", walk: Sequence[Tuple[Tuple[int, int], Tuple[int, int]]]
) -> Tuple[CycleWitnessEdge, ...]:
    """Annotate a ``(src, dst)`` node walk with edge kinds and conflict
    words from the graph, producing the shared witness format."""
    return tuple(
        CycleWitnessEdge(
            src=f"p{src[0]}#{src[1]}",
            dst=f"p{dst[0]}#{dst[1]}",
            kind=graph[src][dst].get("kind", "conflict"),
            addrs=tuple(graph[src][dst].get("addrs", ())),
        )
        for src, dst in walk
    )


@dataclass(frozen=True)
class SerializabilityResult:
    """Outcome of the precedence-graph analysis."""

    ok: bool
    reason: str = ""
    #: A conflict cycle as a list of (proc, chunk_id) nodes, if found.
    cycle: Optional[List[Tuple[int, int]]] = None
    num_chunks: int = 0
    num_conflict_edges: int = 0
    #: The full ordered cycle witness (every edge, with conflict words),
    #: not just the offending nodes.
    cycle_edges: Tuple[CycleWitnessEdge, ...] = field(default=())

    def __bool__(self) -> bool:
        return self.ok

    def witness(self):
        """The cycle in the shared witness format of
        :class:`repro.contracts.dsl.Witness`, so chaos/campaign reports
        render dynamic cycle witnesses and static contract witnesses
        uniformly.  ``None`` when the graph is acyclic.  Event ids are
        the cycle's chunk node labels (``p0#3``-style), matching the
        node spelling the static analyzer uses."""
        from repro.contracts.dsl import Witness

        if self.ok:
            return None
        nodes = [f"p{p}#{c}" for p, c in (self.cycle or ())]
        return Witness(
            component="serializability",
            clause="conflict-cycle",
            message="conflict cycle among chunks " + " -> ".join(nodes),
            events=tuple(nodes),
            data={"edges": [edge.payload() for edge in self.cycle_edges]},
        )


@dataclass(frozen=True)
class ConflictGraphStats:
    """Structural summary of a chunk conflict graph."""

    num_chunks: int
    num_conflict_edges: int
    num_program_edges: int
    serialization_depth: int
    #: num_chunks / serialization_depth — the available chunk parallelism.
    width: float


def _chunk_footprints(history: ExecutionHistory):
    """Per chunk block (in visibility order): read and written word sets."""
    order: List[Tuple[int, int]] = []
    reads: Dict[Tuple[int, int], Set[int]] = {}
    writes: Dict[Tuple[int, int], Set[int]] = {}
    for event in history.events():
        if event.chunk_id is None:
            continue
        key = (event.proc, event.chunk_id)
        if key not in reads:
            order.append(key)
            reads[key] = set()
            writes[key] = set()
        if event.is_store:
            writes[key].add(event.word_addr)
        else:
            reads[key].add(event.word_addr)
    return order, reads, writes


def build_precedence_graph(history: ExecutionHistory) -> "nx.DiGraph":
    """The conflict graph over chunk blocks, edges in visibility order.

    Nodes are ``(proc, chunk_id)``; an edge A → B exists when A precedes
    B in the visibility order and they conflict (WR, RW, or WW on some
    word), or when A and B are consecutive chunks of one processor
    (program order).
    """
    import networkx as nx

    order, reads, writes = _chunk_footprints(history)
    graph = nx.DiGraph()
    graph.add_nodes_from(order)
    last_of_proc: Dict[int, Tuple[int, int]] = {}
    for key in order:
        proc = key[0]
        if proc in last_of_proc:
            graph.add_edge(last_of_proc[proc], key, kind="program")
        last_of_proc[proc] = key
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            if a[0] == b[0]:
                continue  # program-order edge already added
            ww = writes[a] & writes[b]
            wr = writes[a] & reads[b]
            rw = reads[a] & writes[b]
            if ww or wr or rw:
                graph.add_edge(
                    a, b, kind="conflict", addrs=tuple(sorted(ww | wr | rw))
                )
    return graph


def check_conflict_serializability(
    history: ExecutionHistory,
) -> SerializabilityResult:
    """Assert the chunk precedence graph is acyclic.

    For a well-formed history this holds by construction (the visibility
    order is a topological order of its own dependency edges); a cycle
    indicates the history itself is corrupt.
    """
    import networkx as nx

    graph = build_precedence_graph(history)
    conflict_edges = sum(
        1 for __, __, data in graph.edges(data=True) if data.get("kind") == "conflict"
    )
    try:
        found = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return SerializabilityResult(
            ok=True,
            num_chunks=graph.number_of_nodes(),
            num_conflict_edges=conflict_edges,
        )
    cycle_nodes = [edge[0] for edge in found]
    witness = witness_edges(graph, found)
    return SerializabilityResult(
        ok=False,
        reason=(
            "conflict cycle among chunks "
            + " -> ".join(f"p{p}#{c}" for p, c in cycle_nodes)
            + "\n"
            + format_cycle_witness(witness)
        ),
        cycle=cycle_nodes,
        num_chunks=graph.number_of_nodes(),
        num_conflict_edges=conflict_edges,
        cycle_edges=witness,
    )


def conflict_graph_stats(history: ExecutionHistory) -> ConflictGraphStats:
    """Structural facts about the execution's chunk dependencies."""
    import networkx as nx

    graph = build_precedence_graph(history)
    conflict_edges = 0
    program_edges = 0
    for __, __, data in graph.edges(data=True):
        if data.get("kind") == "conflict":
            conflict_edges += 1
        else:
            program_edges += 1
    if graph.number_of_nodes() == 0:
        return ConflictGraphStats(0, 0, 0, 0, 0.0)
    depth = nx.dag_longest_path_length(graph) + 1
    return ConflictGraphStats(
        num_chunks=graph.number_of_nodes(),
        num_conflict_edges=conflict_edges,
        num_program_edges=program_edges,
        serialization_depth=depth,
        width=graph.number_of_nodes() / depth,
    )

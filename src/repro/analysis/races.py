"""Static race classification: lockset + happens-before over the op IR.

Every cross-thread conflicting pair found by the conflict-graph pass is
classified as one of

* ``lock-protected`` — both accesses hold a common lock (Eraser-style
  lockset intersection);
* ``barrier-separated`` / ``flag-ordered`` — a happens-before path
  exists between the two ops through barrier generations or a
  post/wait spin-flag pairing (store of the awaited literal value →
  matching :class:`~repro.cpu.isa.SpinUntil`);
* ``sync-traffic`` — both endpoints are themselves synchronization
  accesses (lock words, spin flags): contention, not a race;
* ``data-race`` — none of the above: the program's outcome depends on
  the interleaving, and under BulkSC the pair is a squash generator.

The happens-before graph is static and therefore *approximate* in one
documented direction: a spin edge is added only when some store writes
the exact literal value the spinner waits for.  Symbolic store values
never create ordering, so the pass errs toward *reporting* races (no
false negatives from imagined synchronization).

Each classification carries a precise op-level witness (both accesses
with their locksets and barrier phases) so a report line is actionable
without re-running the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.analysis.conflict_graph import ConflictEdge, _conflict_edges
from repro.analysis.footprint import ProgramAnalysis, analyze_programs
from repro.cpu.isa import Barrier, SpinUntil, Store
from repro.cpu.thread import ThreadProgram

if TYPE_CHECKING:
    import networkx as nx

#: Classification labels, in report order.
LOCK_PROTECTED = "lock-protected"
BARRIER_SEPARATED = "barrier-separated"
FLAG_ORDERED = "flag-ordered"
SYNC_TRAFFIC = "sync-traffic"
DATA_RACE = "data-race"


@dataclass(frozen=True)
class RacePair:
    """One classified conflicting access pair."""

    edge: ConflictEdge
    classification: str
    #: Human-readable justification ("common lock 0x40", "path via
    #: barrier 1 generation boundary", ...).
    why: str

    @property
    def is_race(self) -> bool:
        return self.classification == DATA_RACE

    def describe(self) -> str:
        return f"[{self.classification}] {self.edge.describe()} ({self.why})"


@dataclass
class RaceReport:
    """All conflicting pairs of a program, classified."""

    pairs: List[RacePair]
    warnings: List[str] = field(default_factory=list)

    @property
    def races(self) -> List[RacePair]:
        return [p for p in self.pairs if p.is_race]

    @property
    def ok(self) -> bool:
        return not self.races

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for pair in self.pairs:
            out[pair.classification] = out.get(pair.classification, 0) + 1
        return out


def _happens_before(
    programs: Sequence[ThreadProgram],
) -> "nx.DiGraph":
    """Static happens-before: program order + barriers + spin-flag edges.

    Nodes are ``(thread, op_index)`` plus synthetic ``("bar", id, gen)``
    rendezvous nodes.  An edge means "guaranteed ordered before in every
    execution".
    """
    import networkx as nx

    graph = nx.DiGraph()
    spin_waiters: List[Tuple[int, int, int, int]] = []  # (addr, value, t, idx)
    literal_stores: List[Tuple[int, int, int, int]] = []
    for thread, program in enumerate(programs):
        ops = list(program)
        barrier_gen: Dict[int, int] = {}
        for index, op in enumerate(ops):
            node = (thread, index)
            graph.add_node(node)
            if index > 0:
                graph.add_edge((thread, index - 1), node)
            if isinstance(op, Barrier):
                gen = barrier_gen.get(op.barrier_id, 0)
                barrier_gen[op.barrier_id] = gen + 1
                rendezvous = ("bar", op.barrier_id, gen)
                # Arrival: everything up to the barrier op precedes the
                # rendezvous; release: the rendezvous precedes everything
                # after it, in *every* participant.
                graph.add_edge(node, rendezvous)
                if index + 1 < len(ops):
                    graph.add_edge(rendezvous, (thread, index + 1))
            elif isinstance(op, SpinUntil):
                spin_waiters.append((op.addr, op.value, thread, index))
            elif isinstance(op, Store) and isinstance(op.value, int):
                literal_stores.append((op.addr, op.value, thread, index))
    for s_addr, s_value, s_thread, s_index in literal_stores:
        for w_addr, w_value, w_thread, w_index in spin_waiters:
            if s_addr == w_addr and s_value == w_value and s_thread != w_thread:
                graph.add_edge((s_thread, s_index), (w_thread, w_index))
    return graph


def _classify(
    edge: ConflictEdge, hb: "nx.DiGraph"
) -> RacePair:
    a, b = edge.a, edge.b
    if edge.sync:
        return RacePair(
            edge=edge,
            classification=SYNC_TRAFFIC,
            why=f"both endpoints are synchronization accesses to {edge.addr:#x}",
        )
    common = a.lockset & b.lockset
    if common:
        locks = ",".join(f"{addr:#x}" for addr in sorted(common))
        return RacePair(
            edge=edge, classification=LOCK_PROTECTED, why=f"common lock {locks}"
        )
    import networkx as nx

    ordered = None
    if nx.has_path(hb, a.node, b.node):
        ordered = (a, b)
    elif nx.has_path(hb, b.node, a.node):
        ordered = (b, a)
    if ordered is not None:
        first, second = ordered
        phases_differ = dict(first.barrier_phases) != dict(second.barrier_phases)
        if phases_differ:
            return RacePair(
                edge=edge,
                classification=BARRIER_SEPARATED,
                why=(
                    f"t{first.thread}#{first.op_index} happens-before "
                    f"t{second.thread}#{second.op_index} across a barrier "
                    "generation"
                ),
            )
        return RacePair(
            edge=edge,
            classification=FLAG_ORDERED,
            why=(
                f"t{first.thread}#{first.op_index} happens-before "
                f"t{second.thread}#{second.op_index} through a spin-flag "
                "post/wait"
            ),
        )
    return RacePair(
        edge=edge,
        classification=DATA_RACE,
        why="no common lock and no happens-before path in either direction",
    )


def detect_races(
    programs: Sequence[ThreadProgram],
    analysis: ProgramAnalysis = None,
) -> RaceReport:
    """Classify every conflicting access pair of a program."""
    if analysis is None:
        analysis = analyze_programs(programs)
    edges = _conflict_edges(analysis)
    hb = _happens_before(programs)
    pairs = [_classify(edge, hb) for edge in edges]
    order = {
        DATA_RACE: 0,
        FLAG_ORDERED: 1,
        BARRIER_SEPARATED: 2,
        LOCK_PROTECTED: 3,
        SYNC_TRAFFIC: 4,
    }
    pairs.sort(
        key=lambda p: (order[p.classification], p.edge.addr,
                       p.edge.a.node, p.edge.b.node)
    )
    return RaceReport(pairs=pairs, warnings=analysis.warnings)

"""The ordering-contract DSL: selectors, clauses, contracts, witnesses.

A :class:`Contract` is a declarative specification of one component's
ordering guarantees, checked *statically* against a recorded event
stream — no simulator execution.  Its three parts:

* an :class:`EventSelector` naming the trace record kinds the component
  observes (the slicer uses it to cut one trace into per-component
  streams);
* :class:`Clause` objects, each an invariant or ordering relation over
  the selected stream, written as a pure function of the records;
* the :class:`Witness` format every clause reports violations in —
  *localized*: component, clause, and the offending trace-record event
  ids, never a whole-run cycle.

Clauses also report **activations** — how many times their antecedent
actually fired.  A clause that never activates proves nothing (vacuous
truth); the bounded model checker (:mod:`repro.contracts.modelcheck`)
sums activation counts over a grid of real recorded runs and rejects a
contract spec with a clause that never fires.

The witness format is shared beyond this package: the dynamic
serializability checker (:mod:`repro.verify.serializability`) emits the
same shape, so chaos/campaign failure reports render contract witnesses
and cycle witnesses uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.replay.schema import TraceRecord


@dataclass(frozen=True)
class Witness:
    """One localized contract violation (or shared-format finding).

    ``events`` are the event ids the finding anchors to: trace record
    ``seq`` numbers for contract clauses, chunk node labels
    (``p0#3``-style) for conflict-cycle witnesses.  ``data`` carries
    clause-specific structured detail (offending ids, expected vs
    observed values) so JSON consumers need not parse ``message``.
    """

    component: str
    clause: str
    message: str
    events: Tuple[object, ...] = ()
    data: Dict[str, object] = field(default_factory=dict)

    def payload(self) -> dict:
        return {
            "component": self.component,
            "clause": self.clause,
            "message": self.message,
            "events": list(self.events),
            "data": dict(self.data),
        }

    def describe(self) -> str:
        where = ""
        if self.events:
            where = " (events " + ", ".join(str(e) for e in self.events) + ")"
        return f"[{self.component}/{self.clause}] {self.message}{where}"


class ClauseContext:
    """Accumulator a clause check writes activations and witnesses into."""

    def __init__(self, component: str, clause: str):
        self.component = component
        self.clause = clause
        self.activations = 0
        self.witnesses: List[Witness] = []

    def activate(self, count: int = 1) -> None:
        """The clause's antecedent fired ``count`` times (non-vacuity)."""
        self.activations += count

    def witness(
        self,
        message: str,
        events: Sequence[object] = (),
        **data: object,
    ) -> None:
        self.witnesses.append(
            Witness(
                component=self.component,
                clause=self.clause,
                message=message,
                events=tuple(events),
                data=dict(data),
            )
        )


@dataclass(frozen=True)
class Clause:
    """One invariant of a contract: a named, pure check over the stream."""

    name: str
    description: str
    check: Callable[[Sequence[TraceRecord], ClauseContext], None]


@dataclass(frozen=True)
class EventSelector:
    """Which record kinds a component observes (the slicing criterion)."""

    kinds: Tuple[str, ...]

    def matches(self, record: TraceRecord) -> bool:
        return record.ev in self.kinds

    def select(self, records: Sequence[TraceRecord]) -> List[TraceRecord]:
        wanted = frozenset(self.kinds)
        return [r for r in records if r.ev in wanted]


@dataclass(frozen=True)
class ClauseVerdict:
    """One clause's outcome over one stream."""

    name: str
    ok: bool
    activations: int
    witnesses: Tuple[Witness, ...]

    @property
    def vacuous(self) -> bool:
        return self.activations == 0

    def payload(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "activations": self.activations,
            "witnesses": [w.payload() for w in self.witnesses],
        }


@dataclass(frozen=True)
class ContractVerdict:
    """One component's verdict: every clause checked over its slice."""

    component: str
    events: int
    clauses: Tuple[ClauseVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

    @property
    def witnesses(self) -> Tuple[Witness, ...]:
        return tuple(w for c in self.clauses for w in c.witnesses)

    @property
    def activations(self) -> Dict[str, int]:
        return {c.name: c.activations for c in self.clauses}

    def payload(self) -> dict:
        return {
            "component": self.component,
            "ok": self.ok,
            "events": self.events,
            "clauses": [c.payload() for c in self.clauses],
        }


@dataclass(frozen=True)
class Contract:
    """A component's full ordering contract."""

    component: str
    description: str
    selector: EventSelector
    clauses: Tuple[Clause, ...]

    def check(self, records: Sequence[TraceRecord]) -> ContractVerdict:
        """Validate this contract against a (whole or pre-sliced) stream."""
        stream = self.selector.select(records)
        verdicts = []
        for clause in self.clauses:
            ctx = ClauseContext(self.component, clause.name)
            clause.check(stream, ctx)
            verdicts.append(
                ClauseVerdict(
                    name=clause.name,
                    ok=not ctx.witnesses,
                    activations=ctx.activations,
                    witnesses=tuple(ctx.witnesses),
                )
            )
        return ContractVerdict(
            component=self.component, events=len(stream), clauses=tuple(verdicts)
        )

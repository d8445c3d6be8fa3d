"""Check every component contract plus the composition obligation.

This is the layer the CLI, the campaign runner, and the chaos failure
paths call: slice a trace, validate each shipped contract locally,
discharge the composition obligation, and render the result as either
JSON (stable payload) or a human report with *localized* witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.contracts.composition import (
    COMPOSITION_COMPONENT,
    CompositionResult,
    compose,
)
from repro.contracts.dsl import ContractVerdict, Witness
from repro.contracts.library import ALL_CONTRACTS, COMPONENTS, contract_for
from repro.errors import ReproError
from repro.replay.schema import Trace, TraceRecord

#: Component spellings `--component` accepts (the five + the obligation).
CHECKABLE = COMPONENTS + (COMPOSITION_COMPONENT,)


class ContractError(ReproError):
    """A contract check was asked for an unknown component."""


@dataclass(frozen=True)
class ContractReport:
    """All verdicts for one trace: five local contracts + composition."""

    verdicts: Tuple[ContractVerdict, ...]
    composition: Optional[CompositionResult]

    @property
    def ok(self) -> bool:
        if any(not v.ok for v in self.verdicts):
            return False
        if self.composition is not None and not self.composition.ok:
            return False
        return True

    @property
    def witnesses(self) -> Tuple[Witness, ...]:
        found: List[Witness] = []
        for verdict in self.verdicts:
            found.extend(verdict.witnesses)
        if self.composition is not None:
            found.extend(self.composition.witnesses)
        return tuple(found)

    @property
    def failing_components(self) -> Tuple[str, ...]:
        failing = [v.component for v in self.verdicts if not v.ok]
        if self.composition is not None and not self.composition.ok:
            failing.append(COMPOSITION_COMPONENT)
        return tuple(failing)

    def payload(self) -> dict:
        return {
            "ok": self.ok,
            "components": [v.payload() for v in self.verdicts],
            "composition": (
                self.composition.payload() if self.composition else None
            ),
            "failing": list(self.failing_components),
        }


def select_components(components: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """The components to check: ``components``, or all of :data:`CHECKABLE`.

    Raises :class:`ContractError` naming the known components when any
    requested name is unknown.
    """
    if not components:
        return CHECKABLE
    unknown = [c for c in components if c not in CHECKABLE]
    if unknown:
        raise ContractError(
            f"unknown component(s) {', '.join(unknown)} "
            f"(known: {', '.join(CHECKABLE)})"
        )
    return tuple(components)


def check_records(
    records: Sequence[TraceRecord],
    footer: Optional[dict] = None,
    components: Optional[Sequence[str]] = None,
) -> ContractReport:
    """Check contracts over a raw record stream.

    ``components`` restricts checking (names from :data:`CHECKABLE`);
    the default checks everything including the composition obligation.
    """
    wanted = select_components(components)
    verdicts = tuple(
        contract_for(name).check(records)
        for name in COMPONENTS
        if name in wanted
    )
    composition = (
        compose(records, footer) if COMPOSITION_COMPONENT in wanted else None
    )
    return ContractReport(verdicts=verdicts, composition=composition)


def check_trace(
    trace: Trace, components: Optional[Sequence[str]] = None
) -> ContractReport:
    return check_records(trace.records, footer=trace.footer,
                         components=components)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def render_report(report: ContractReport, name: str = "") -> str:
    """Human-readable verdict table with localized witnesses."""
    lines: List[str] = []
    title = "contract verdicts"
    if name:
        title += f" for {name}"
    lines.append(title)
    for verdict in report.verdicts:
        mark = "ok " if verdict.ok else "FAIL"
        lines.append(
            f"  [{mark}] {verdict.component:<10} "
            f"({verdict.events} events)"
        )
        for clause in verdict.clauses:
            note = "vacuous" if clause.vacuous else f"{clause.activations} activations"
            state = "ok" if clause.ok else "VIOLATED"
            lines.append(f"        {clause.name:<26} {state:<9} {note}")
    if report.composition is not None:
        c = report.composition
        if not c.evaluated:
            lines.append(f"  [--- ] composition  unevaluable: {c.reason}")
        else:
            mark = "ok " if c.ok else "FAIL"
            agree = f" agreement={c.agreement}" if c.agreement else ""
            lines.append(
                f"  [{mark}] composition  sc_ok={c.sc_ok} "
                f"({c.chunks} chunks, {c.ops} ops){agree}"
            )
    witnesses = report.witnesses
    if witnesses:
        lines.append(f"witnesses ({len(witnesses)}):")
        for witness in witnesses:
            lines.append(f"  {witness.describe()}")
    return "\n".join(lines)


def localized_summary(report: ContractReport, limit: int = 3) -> str:
    """One-line-per-failure summary for chaos/campaign failure paths."""
    if report.ok:
        return "contracts: all components ok"
    lines = [
        "contracts: violation localized to "
        + ", ".join(report.failing_components)
    ]
    for witness in report.witnesses[:limit]:
        lines.append("  " + witness.describe())
    remaining = len(report.witnesses) - limit
    if remaining > 0:
        lines.append(f"  ... and {remaining} more witness(es)")
    return "\n".join(lines)


__all__ = [
    "ALL_CONTRACTS",
    "CHECKABLE",
    "ContractError",
    "ContractReport",
    "check_records",
    "check_trace",
    "localized_summary",
    "render_report",
    "select_components",
]

"""Spec expansion: the deterministic cell queue and its keys.

A campaign's work queue is *derived*, never stored: expanding the same
spec always yields the same cells in the same canonical order

    for workload -> for config -> for fault variant -> for seed

so ``resume`` rebuilds the queue from ``campaign.json`` and needs only
the store's result keys to know what is left.  Each cell's identity is
the :func:`repro.harness.runner.memo_key` tuple extended with the cell's
fault environment, hashed to a short stable hex key — the same notion of
run identity the :class:`~repro.harness.runner.SweepRunner` cache uses,
which is what makes campaign resume and sweep memoization agree on when
two runs are "the same run".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.campaign.spec import CampaignSpec, FaultVariant
from repro.harness.runner import memo_key
from repro.replay.workload import workload_name


@dataclass(frozen=True)
class CampaignCell:
    """One fully-specified simulation cell of a campaign."""

    index: int
    config: str
    workload: dict
    seed: int
    fault: FaultVariant
    instructions: int
    max_events: int
    #: ``(seed, label)`` the cell's fault injector is forked from, when
    #: not the campaign default ``(seed, "campaign/<key>")`` — the
    #: ``chaos`` front-end labels its runs itself.  Not part of the memo
    #: tuple, so it never changes a cell key.
    injector: Optional[Tuple[int, str]] = None
    #: An explicit fault schedule the injector follows instead of drawing
    #: (the trace-header ``fault_script`` form; see
    #: :class:`~repro.faults.injector.FaultInjector`).  Set by replay and
    #: the minimizer; outside the memo tuple like ``injector``.
    fault_script: Optional[dict] = None
    #: A forced-denial schedule: ``(proc, n)`` pairs, each turning the
    #: first ``n`` grants to ``proc`` into denials (see
    #: :func:`~repro.replay.recorder.force_denials`).  Set by the
    #: schedule explorer.  A non-empty schedule is part of the memo tuple
    #: and the name, so cells that differ only in it stay distinct; an
    #: empty one leaves both as they were.
    denials: Tuple[Tuple[int, int], ...] = ()

    def injector_identity(self) -> Tuple[int, str]:
        """The ``(seed, label)`` of this cell's fault injector."""
        return self.injector or (self.seed, f"campaign/{self.key}")

    def workload_spec(self) -> dict:
        """The concrete replay-dialect workload spec for this cell.

        App workloads get the campaign instruction budget and this
        cell's seed filled in (a spec entry fans out across seeds).
        """
        spec = dict(self.workload)
        if spec.get("kind") == "app":
            spec.setdefault("instructions", self.instructions)
            spec.setdefault("seed", self.seed)
        return spec

    @property
    def name(self) -> str:
        """Human-readable cell label (stable, but not the identity)."""
        name = (
            f"{workload_name(self.workload_spec())}"
            f"/{self.config}/s{self.seed}/f[{self.fault.describe()}]"
        )
        if self.denials:
            name += f"/d[{','.join(f'{proc}:{n}' for proc, n in self.denials)}]"
        return name

    def memo_tuple(self) -> Tuple:
        """The cell's identity: the sweep memo key + fault environment.

        Contract cells are static analysis — no config, seed, or fault
        environment affects their outcome — so their identity is just
        the trace + component, letting the queue's dedup collapse the
        config × fault × seed fan-out to one cell per component.
        """
        if self.workload.get("kind") == "contracts":
            return (
                "contracts",
                self.workload.get("trace"),
                self.workload.get("component", "all"),
            )
        base = memo_key(
            self.config,
            workload_name(self.workload_spec()),
            self.instructions,
            self.seed,
            True,  # campaigns always record history (the SC oracle needs it)
        )
        identity = base + (
            self.fault.faults,
            self.fault.rate,
            self.fault.no_retry,
            tuple(self.fault.crashes),
            self.max_events,
        )
        if self.denials:
            identity += (("denials", self.denials),)
        return identity

    @property
    def key(self) -> str:
        return cell_key(self)


def cell_key(cell: CampaignCell) -> str:
    """Short stable hex key of a cell (sha256 of its memo tuple).

    Canonical-JSON hashing keeps the key identical across processes and
    interpreter runs — resume correctness depends on exactly this.
    """
    canonical = json.dumps(cell.memo_tuple(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def expand_cells(spec: CampaignSpec) -> List[CampaignCell]:
    """Expand a spec into its canonical, deterministic cell order."""
    cells: List[CampaignCell] = []
    for workload in spec.workloads:
        for config in spec.configs:
            for fault in spec.faults:
                for seed in spec.seeds:
                    cells.append(
                        CampaignCell(
                            index=len(cells),
                            config=config,
                            workload=dict(workload),
                            seed=seed,
                            fault=fault,
                            instructions=spec.instructions,
                            max_events=spec.max_events,
                        )
                    )
    return cells


def cells_by_key(cells: List[CampaignCell]) -> Dict[str, CampaignCell]:
    """Key→cell map; rejects (astronomically unlikely) key collisions."""
    by_key: Dict[str, CampaignCell] = {}
    for cell in cells:
        existing = by_key.setdefault(cell.key, cell)
        if existing is not cell and existing.memo_tuple() != cell.memo_tuple():
            raise AssertionError(
                f"cell key collision: {existing.name!r} vs {cell.name!r}"
            )
    return by_key

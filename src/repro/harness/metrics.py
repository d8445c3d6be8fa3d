"""Metric extraction: RunResult -> the numbers the paper reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable

from repro.system import RunResult


def speedup_over(baseline: RunResult, candidate: RunResult) -> float:
    """Execution-time speedup of ``candidate`` normalized to ``baseline``.

    1.0 means equal; the paper's Figures 9/10 normalize everything to RC.
    """
    if candidate.cycles <= 0:
        raise ValueError("candidate ran for zero cycles")
    return baseline.cycles / candidate.cycles


def geometric_mean(values: Iterable[float]) -> float:
    values = [v for v in values]
    if not values:
        return 0.0
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values) / len(values))


def _proc_sum(result: RunResult, suffix: str) -> float:
    return sum(
        result.stat(f"proc{p}.{suffix}")
        for p in range(result.config.num_processors)
    )


def _proc_mean_of_means(result: RunResult, suffix: str) -> float:
    values = [
        result.stats.get(f"proc{p}.{suffix}.mean", 0.0)
        for p in range(result.config.num_processors)
    ]
    values = [v for v in values if v > 0] or [0.0]
    return sum(values) / len(values)


@dataclass(frozen=True)
class CharacterizationRow:
    """One application's row of the paper's Table 3."""

    app: str
    squashed_instructions_pct: float
    read_set: float
    write_set: float
    priv_write_set: float
    spec_write_displacements_per_100k: float
    spec_read_displacements_per_100k: float
    data_from_priv_buffer_per_1k: float
    extra_cache_invs_per_1k: float

    @classmethod
    def from_result(cls, app: str, result: RunResult) -> "CharacterizationRow":
        commits = max(1.0, result.stat("commit.visible"))
        squashed = _proc_sum(result, "squashed_instructions")
        total = max(1, result.total_instructions)
        return cls(
            app=app,
            squashed_instructions_pct=100.0 * squashed / total,
            read_set=_proc_mean_of_means(result, "read_set"),
            write_set=_proc_mean_of_means(result, "write_set"),
            priv_write_set=_proc_mean_of_means(result, "priv_write_set"),
            # Speculatively *written* lines are pinned and cannot be
            # displaced; the counter exists to prove it stays ~0.
            spec_write_displacements_per_100k=100_000.0
            * _proc_sum(result, "spec_write_displacements")
            / commits,
            spec_read_displacements_per_100k=100_000.0
            * _proc_sum(result, "spec_read_displacements")
            / commits,
            data_from_priv_buffer_per_1k=1_000.0
            * _proc_sum(result, "data_from_private_buffer")
            / commits,
            extra_cache_invs_per_1k=1_000.0
            * _proc_sum(result, "extra_cache_invalidations")
            / commits,
        )


@dataclass(frozen=True)
class CommitRow:
    """One application's row of the paper's Table 4."""

    app: str
    lookups_per_commit: float
    unnecessary_lookups_pct: float
    unnecessary_updates_pct: float
    nodes_per_w_sig: float
    pending_w_sigs: float
    nonempty_w_list_pct: float
    r_sig_required_pct: float
    empty_w_sig_pct: float

    @classmethod
    def from_result(cls, app: str, result: RunResult) -> "CommitRow":
        commits = max(1.0, result.stat("commit.visible"))
        lookups = result.stat("dirbdm.lookups")
        unnecessary = result.stat("dirbdm.unnecessary_lookups")
        updates = result.stat("dirbdm.updates")
        unnecessary_updates = result.stat("dirbdm.unnecessary_updates")
        # The run's stats snapshot flattens the time-weighted occupancy
        # (Machine.run passes its end time), so no live machine is needed.
        pending = result.stat("arbiter0.pending_w.avg")
        nonempty = 100.0 * result.stat("arbiter0.pending_w.nonzero_frac")
        grants = max(1.0, result.stat("commit.grants"))
        return cls(
            app=app,
            lookups_per_commit=lookups / commits,
            unnecessary_lookups_pct=100.0 * unnecessary / max(1.0, lookups),
            unnecessary_updates_pct=100.0 * unnecessary_updates / max(1.0, updates),
            nodes_per_w_sig=result.stats.get("commit.nodes_per_w_sig.mean", 0.0),
            pending_w_sigs=pending,
            nonempty_w_list_pct=nonempty,
            r_sig_required_pct=100.0
            * result.stat("commit.r_signatures_sent")
            / grants,
            empty_w_sig_pct=100.0 * result.stat("commit.empty_w_commits") / grants,
        )


def traffic_breakdown_normalized(
    result: RunResult, rc_total_bytes: float
) -> Dict[str, float]:
    """Per-class traffic as a fraction of the RC run's total (Figure 11)."""
    if rc_total_bytes <= 0:
        raise ValueError("RC total bytes must be positive")
    return {
        cls: bytes_ / rc_total_bytes for cls, bytes_ in result.traffic_bytes.items()
    }


def total_traffic(result: RunResult) -> float:
    return float(sum(result.traffic_bytes.values()))


def squashed_instruction_pct(result: RunResult) -> float:
    return 100.0 * _proc_sum(result, "squashed_instructions") / max(
        1, result.total_instructions
    )

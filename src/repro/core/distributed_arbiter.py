"""Distributed arbitration (paper Section 4.2.3, Figure 8).

For large machines the single arbiter is distributed into one module per
address range (co-located with that range's directory).  A chunk that
accessed a single range arbitrates locally; a chunk spanning ranges goes
through the **G-arbiter**, which fans the request out to every involved
range arbiter, combines their verdicts, and replies to all parties.  The
central arbiter is the one-range case of the same front end.

The G-arbiter caches the W signatures of multi-range commits it
coordinated so it can fast-deny colliding requests without a fan-out
round trip.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.arbiter import Arbiter, ArbiterMode, ArbitrationDecision
from repro.engine.stats import StatsRegistry
from repro.errors import ProtocolError
from repro.params import BulkSCConfig
from repro.signatures.base import Signature


class GlobalArbiter:
    """The coordinator for multi-range commits (with a W-signature cache)."""

    def __init__(self, stats: Optional[StatsRegistry] = None):
        self.stats = stats if stats is not None else StatsRegistry("garbiter")
        self._cached: Dict[int, Signature] = {}  # commit_id -> W

    def fast_deny(self, r_sig: Optional[Signature], w_sig: Signature) -> bool:
        """Check the W cache before fanning out (Section 4.2.3 speedup)."""
        for cached_w in self._cached.values():
            if not cached_w.disjoint(w_sig):
                self.stats.bump("garbiter.fast_denies")
                return True
            if r_sig is not None and not cached_w.disjoint(r_sig):
                self.stats.bump("garbiter.fast_denies")
                return True
        return False

    def note_granted(self, commit_id: int, w_sig: Signature) -> None:
        if not w_sig.is_empty():
            self._cached[commit_id] = w_sig

    def note_released(self, commit_id: int) -> None:
        self._cached.pop(commit_id, None)

    def crash(self) -> int:
        """Crash-stop the G-arbiter: drop the W cache.

        The cache is pure acceleration state — authoritative W lists live
        in the range arbiters — so losing it costs fan-out round trips,
        never correctness, and no reconstruct phase is needed.  Returns
        the number of cached W signatures dropped.
        """
        dropped = len(self._cached)
        self._cached.clear()
        self.stats.bump("garbiter.crashes")
        return dropped


class DistributedArbiter:
    """The arbiter front end: per-address-range arbiters plus the G-arbiter.

    Every BulkSC machine has exactly one.  The distributed topology gives
    it one range per directory module; the central topology is the
    one-range case, where every request goes to ``arbiters[0]`` and the
    G-arbiter is never consulted.  A chunk that touched one range gets
    that range arbiter's decision unchanged (Figure 8a); a multi-range
    chunk goes through the G-arbiter, which combines the involved
    ranges' verdicts (Figure 8b).  Grants are stamped with a *lease*, the
    per-range epochs of the involved ranges, and releases quote it back.
    """

    def __init__(
        self,
        config: BulkSCConfig,
        num_ranges: int,
        stats: Optional[StatsRegistry] = None,
    ):
        if num_ranges < 1:
            raise ValueError("need at least one address range")
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry("distarb")
        self.num_ranges = num_ranges
        self.arbiters: List[Arbiter] = [
            Arbiter(config, self.stats, index=i) for i in range(num_ranges)
        ]
        self.g_arbiter = GlobalArbiter(self.stats)
        # commit_id -> ranges it was admitted to (for release routing).
        self._admitted_ranges: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    def ranges_of(self, *line_sets: Set[int]) -> Tuple[int, ...]:
        """Which address ranges (== directory modules) the lines fall in.

        An empty footprint is charged to range 0, like every one-range
        machine's requests.
        """
        if self.num_ranges == 1:
            return (0,)
        mask = self.num_ranges - 1
        return tuple(
            sorted({addr & mask for lines in line_sets for addr in lines})
        ) or (0,)

    # ------------------------------------------------------------------
    def decide(
        self,
        proc: int,
        w_sig: Signature,
        r_sig: Optional[Signature],
        ranges: Sequence[int],
        now: float,
    ) -> ArbitrationDecision:
        """Arbitrate across the involved ranges."""
        if len(ranges) == 1:
            return self.arbiters[ranges[0]].decide(proc, w_sig, r_sig, now)
        self.stats.bump("garbiter.multi_range_requests")
        if self.g_arbiter.fast_deny(r_sig, w_sig):
            return ArbitrationDecision(
                False, reason="G-arbiter cached W collision", used_g_arbiter=True
            )
        decisions = [self.arbiters[r].decide(proc, w_sig, r_sig, now) for r in ranges]
        if any(d.needs_r_signature for d in decisions):
            return ArbitrationDecision(
                False, needs_r_signature=True, used_g_arbiter=True
            )
        denied = next((d for d in decisions if not d.granted), None)
        if denied is not None:
            return ArbitrationDecision(
                False, reason=denied.reason, used_g_arbiter=True
            )
        return ArbitrationDecision(True, used_g_arbiter=True)

    # ------------------------------------------------------------------
    def admit(
        self,
        commit_id: int,
        proc: int,
        w_sig: Signature,
        ranges: Sequence[int],
        now: float,
    ) -> None:
        if w_sig.is_empty():
            # An empty W never enters any list, so it is not registered for
            # release routing either (its release is "unknown").
            return
        involved = tuple(ranges)
        for r in involved:
            self.arbiters[r].admit(commit_id, proc, w_sig, now)
        self._admitted_ranges[commit_id] = involved
        if len(involved) > 1:
            self.g_arbiter.note_granted(commit_id, w_sig)

    def lease_for(self, ranges: Sequence[int]) -> Tuple[int, ...]:
        """The per-range epochs a grant over ``ranges`` is stamped with."""
        if len(ranges) == 1:
            return (self.arbiters[ranges[0]].epoch,)
        return tuple([self.arbiters[r].epoch for r in ranges])

    def lease_valid(self, ranges: Sequence[int], lease: Sequence[int]) -> bool:
        """Whether every involved range still serves the leased epoch."""
        return tuple(lease) == self.lease_for(ranges)

    def release(
        self, commit_id: int, now: float, lease: Optional[Sequence[int]] = None
    ) -> None:
        """Release across the admitted ranges, quoting each its lease epoch.

        The front end never crashes, so an unknown ``commit_id`` here is a
        real protocol disagreement and honors ``strict_protocol``.
        Per-range releases pass the lease epoch through so a range whose
        incarnation died since the grant tolerates the release instead of
        raising.
        """
        for arbiter, epoch in self._withdraw(commit_id, lease, "release"):
            arbiter.release(commit_id, now, epoch=epoch)

    def abort(
        self, commit_id: int, now: float, lease: Optional[Sequence[int]] = None
    ) -> None:
        """A granted chunk was abandoned (squash raced the grant)."""
        for arbiter, epoch in self._withdraw(commit_id, lease, "abort"):
            arbiter.abort(commit_id, now, epoch=epoch)

    def _withdraw(
        self, commit_id: int, lease: Optional[Sequence[int]], verb: str
    ) -> List[Tuple[Arbiter, Optional[int]]]:
        """Forget ``commit_id``; its range arbiters paired with lease epochs."""
        involved = self._admitted_ranges.pop(commit_id, None)
        if involved is None:
            self.stats.bump("distarb.released_unknown")
            if self.config.strict_protocol:
                raise ProtocolError(
                    f"{verb} of unknown commit {commit_id} at distributed arbiter"
                )
            return []
        self.g_arbiter.note_released(commit_id)
        epochs = lease if lease is not None else (None,) * len(involved)
        return [(self.arbiters[r], epoch) for r, epoch in zip(involved, epochs)]

    # ------------------------------------------------------------------
    # Pre-arbitration fans out to every range.
    # ------------------------------------------------------------------
    def reserve(self, proc: int) -> bool:
        """Reserve every range for ``proc``; refused while any range is down."""
        if all(
            a.mode is ArbiterMode.NORMAL and a.reserved_by in (None, proc)
            for a in self.arbiters
        ):
            for arbiter in self.arbiters:
                arbiter.reserve(proc)
            return True
        return False

    def clear_reservation(self, proc: int) -> None:
        for arbiter in self.arbiters:
            arbiter.clear_reservation(proc)

    @property
    def pending_count(self) -> int:
        return sum(a.pending_count for a in self.arbiters)

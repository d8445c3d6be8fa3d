"""The commit arbiter (paper Section 4.2).

The arbiter is a simple state machine holding the W signatures of all
currently-committing chunks.  A permission-to-commit request carries the
chunk's R and W signatures; permission is granted iff every W in the list
has an empty intersection with both.  Granted non-empty W signatures join
the list until the commit's invalidations are acknowledged.

The **RSig optimization** (4.2.2, on by default): requests carry only W;
when the list is empty — the common case, thanks to private-data
filtering — the arbiter grants immediately and the R transfer is saved.
Otherwise it asks the processor for R and decides as usual.

**Pre-arbitration** (3.3): a processor that keeps getting squashed may
reserve the arbiter; while reserved, commit requests from other
processors are denied, guaranteeing the reserving processor's next chunk
commits.

**Epochs and crash recovery**: the arbiter numbers its incarnations.  A
crash (injected via the ``arbiter-crash`` fault) drops the in-flight
W-list and bumps the epoch; every grant is stamped with the epoch it was
issued under (the commit engine's *lease*), and releases quote it back,
so a release for a W that died with the old incarnation is tolerated —
counted, never raised — even under ``strict_protocol``.  While DOWN the
arbiter denies everything; during RECONSTRUCTING (driven by
:class:`~repro.core.recovery.ArbiterRecoveryManager`) surviving commits
are re-admitted and service is serial — one commit at a time — until the
re-admitted set drains, restoring full overlapped commit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.engine.stats import Counter, StatsRegistry
from repro.errors import ProtocolError
from repro.params import BulkSCConfig
from repro.signatures.base import Signature


class ArbiterMode(enum.Enum):
    """Service state of one arbiter incarnation."""

    NORMAL = "normal"
    DOWN = "down"  # crashed; awaiting failover
    RECONSTRUCTING = "reconstructing"  # new epoch re-admitting survivors


@dataclass(frozen=True)
class ArbitrationDecision:
    """Outcome of one arbitration step."""

    granted: bool
    needs_r_signature: bool = False
    reason: str = ""
    #: The request spanned ranges and went through the G-arbiter.
    used_g_arbiter: bool = False


class Arbiter:
    """The arbiter of one address range.

    A machine's :class:`~repro.core.distributed_arbiter.DistributedArbiter`
    front end holds one per range; the central topology has exactly one.
    """

    def __init__(
        self,
        config: BulkSCConfig,
        stats: Optional[StatsRegistry] = None,
        index: int = 0,
    ):
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry("arbiter")
        self.index = index
        # commit_id -> (W signature, processor)
        self._active: Dict[int, Tuple[Signature, int]] = {}
        self._reserved_by: Optional[int] = None
        self._name = f"arbiter{index}"
        # Handles of the per-decide counters, made on first use: an unused
        # counter must stay out of the stats snapshot.
        self._requests: Optional[Counter] = None
        self._grants: Optional[Counter] = None
        # Crash-recovery state: the incarnation number, the service mode,
        # and — during reconstruction — the surviving commits whose W was
        # re-admitted and must drain before normal service resumes.
        self._epoch = 1
        self._mode = ArbiterMode.NORMAL
        self._readmitted: Set[int] = set()
        #: Called with ``now`` when reconstruction drains back to NORMAL
        #: (wired by the recovery manager for latency accounting).
        self.on_recovered: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def decide(
        self,
        proc: int,
        w_sig: Signature,
        r_sig: Optional[Signature],
        now: float,
    ) -> ArbitrationDecision:
        """Process a permission-to-commit request.

        ``r_sig=None`` models the RSig protocol's first message (W only);
        the arbiter then either grants (empty list) or requests R.
        """
        requests = self._requests
        if requests is None:
            requests = self._requests = self.stats.counter(f"{self._name}.requests")
        requests.value += 1.0
        if self._mode is ArbiterMode.DOWN:
            self.stats.bump(f"{self._name}.denied_down")
            return ArbitrationDecision(False, reason="arbiter down (awaiting recovery)")
        if self._reserved_by is not None and self._reserved_by != proc:
            self.stats.bump(f"{self._name}.denied_prearbitration")
            return ArbitrationDecision(False, reason="pre-arbitration reservation")
        if not self._active:
            return self._grant(w_sig, now, r_was_needed=False)
        if self._mode is ArbiterMode.RECONSTRUCTING:
            # Degraded mode: one commit at a time until every re-admitted
            # survivor drains, then full overlapped commit resumes.
            self.stats.bump(f"{self._name}.denied_reconstructing")
            return ArbitrationDecision(
                False, reason="arbiter reconstructing (serial commit)"
            )
        if self.config.serialize_commits:
            # Naive design (Section 3.2.1): only one chunk commits at a
            # time, regardless of signature overlap.
            self.stats.bump(f"{self._name}.denied_serialized")
            return ArbitrationDecision(False, reason="commit in progress (naive)")
        if r_sig is None and self.config.rsig_optimization:
            self.stats.bump(f"{self._name}.r_signature_requests")
            return ArbitrationDecision(
                False, needs_r_signature=True, reason="W list non-empty; send R"
            )
        if len(self._active) >= self.config.max_simultaneous_commits:
            self.stats.bump(f"{self._name}.denied_capacity")
            return ArbitrationDecision(False, reason="commit capacity reached")
        # The fast predicates: packed-bank ANDs with early exit, no
        # intermediate signature per (listed W, request) pair.
        for active_w, __ in self._active.values():
            if r_sig is not None and not active_w.disjoint(r_sig):
                self.stats.bump(f"{self._name}.denied_r_collision")
                return ArbitrationDecision(False, reason="R collides with committing W")
            if not active_w.disjoint(w_sig):
                self.stats.bump(f"{self._name}.denied_w_collision")
                return ArbitrationDecision(False, reason="W collides with committing W")
        return self._grant(w_sig, now, r_was_needed=True)

    def _grant(self, w_sig: Signature, now: float, r_was_needed: bool) -> ArbitrationDecision:
        grants = self._grants
        if grants is None:
            grants = self._grants = self.stats.counter(f"{self._name}.grants")
        grants.value += 1.0
        if w_sig.is_empty():
            self.stats.bump(f"{self._name}.empty_w_commits")
        if r_was_needed:
            self.stats.bump(f"{self._name}.grants_after_r")
        return ArbitrationDecision(True)

    # ------------------------------------------------------------------
    # W-list management
    # ------------------------------------------------------------------
    def admit(self, commit_id: int, proc: int, w_sig: Signature, now: float) -> None:
        """Add a granted, non-empty W to the committing list."""
        if w_sig.is_empty():
            return  # empty W never enters the list (Section 5)
        if commit_id in self._active:
            raise ProtocolError(f"commit {commit_id} already active at {self._name}")
        self._active[commit_id] = (w_sig, proc)
        self._track_occupancy(now)

    def release(self, commit_id: int, now: float, epoch: Optional[int] = None) -> None:
        """All invalidation acknowledgements arrived; drop the W.

        Releasing a ``commit_id`` the arbiter never admitted (or already
        released) is counted in ``released_unknown``; under
        ``strict_protocol`` it raises, since in a fault-free run it means
        the commit engine and arbiter disagree about the W list.  Under
        fault injection duplicate releases are expected (duplicated ack
        messages) and the count is the interesting signal.

        ``epoch`` is the lease the grant was stamped with.  An unknown
        release quoting a *dead* epoch is the expected aftermath of a
        crash — the W died with the old incarnation's list — so it is
        tolerated (``released_dead_epoch``) even under strict checking.
        """
        if commit_id not in self._active:
            if epoch is not None and epoch != self._epoch:
                self.stats.bump(f"{self._name}.released_dead_epoch")
                return
            self.stats.bump(f"{self._name}.released_unknown")
            if self.config.strict_protocol:
                raise ProtocolError(
                    f"release of unknown commit {commit_id} at {self._name}"
                )
            return
        self._active.pop(commit_id)
        self._track_occupancy(now)
        if self._mode is ArbiterMode.RECONSTRUCTING:
            self._readmitted.discard(commit_id)
            self.finish_reconstruction_if_drained(now)

    def abort(self, commit_id: int, now: float, epoch: Optional[int] = None) -> None:
        """A granted chunk was abandoned (squash raced the grant)."""
        if commit_id in self._active:
            self.stats.bump(f"{self._name}.aborted_commits")
        self.release(commit_id, now, epoch=epoch)

    def _track_occupancy(self, now: float) -> None:
        self.stats.time_weighted(f"{self._name}.pending_w").set(
            len(self._active), now
        )

    # ------------------------------------------------------------------
    # Crash / recovery (epoch failover)
    # ------------------------------------------------------------------
    def crash(self, now: float) -> int:
        """Crash-stop this incarnation: drop every in-flight W.

        The epoch bump is what makes the loss safe: grants stamped with
        the dead epoch are rejected at the processor, and their releases
        are tolerated, so a pre-crash grant can never race a
        post-recovery one.  Returns the number of W signatures dropped.
        """
        dropped = len(self._active)
        self._active.clear()
        self._readmitted.clear()
        self._reserved_by = None
        self._epoch += 1
        self._mode = ArbiterMode.DOWN
        self.stats.bump(f"{self._name}.crashes")
        self._track_occupancy(now)
        return dropped

    def adopt_epoch(self, epoch: int) -> int:
        """Fast-forward this incarnation counter to a later lease number.

        Used by service failover: a standby arbiter taking over learns the
        dead primary's epoch from heartbeats and node polls, adopts it,
        then :meth:`crash`\\ es so the bump lands on the successor
        incarnation.  Epochs only move forward — adopting a smaller value
        is a protocol violation (two live incarnations would share leases).
        """
        if epoch < self._epoch:
            raise ProtocolError(
                f"{self._name} cannot adopt epoch {epoch}: already at "
                f"{self._epoch} (epochs only move forward)"
            )
        self._epoch = epoch
        return self._epoch

    def begin_reconstruction(self, now: float) -> None:
        """The new epoch starts polling processors for surviving commits."""
        if self._mode is ArbiterMode.DOWN:
            self._mode = ArbiterMode.RECONSTRUCTING

    def readmit(self, commit_id: int, proc: int, w_sig: Signature, now: float) -> None:
        """Re-admit a surviving in-flight commit during reconstruction.

        The W signature is re-collected from the committing processor's
        BDM (it never left: the processor holds it until its acks
        complete), so the rebuilt list is exactly the surviving slice of
        the dead incarnation's list.  Idempotent; empty W still never
        enters the list.
        """
        if w_sig.is_empty():
            return
        if commit_id not in self._active:
            self._active[commit_id] = (w_sig, proc)
            self._track_occupancy(now)
            self.stats.bump(f"{self._name}.readmitted")
        if self._mode is ArbiterMode.RECONSTRUCTING:
            self._readmitted.add(commit_id)

    def finish_reconstruction_if_drained(self, now: float) -> None:
        """Restore normal (overlapped) service once survivors drained."""
        if self._mode is ArbiterMode.RECONSTRUCTING and not self._readmitted:
            self._mode = ArbiterMode.NORMAL
            if self.on_recovered is not None:
                self.on_recovered(now)

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def mode(self) -> ArbiterMode:
        return self._mode

    # ------------------------------------------------------------------
    # Pre-arbitration (forward progress)
    # ------------------------------------------------------------------
    def reserve(self, proc: int) -> bool:
        """Reserve exclusive commit rights for ``proc`` (pre-arbitration)."""
        if self._mode is not ArbiterMode.NORMAL:
            return False
        if self._reserved_by is not None and self._reserved_by != proc:
            return False
        self._reserved_by = proc
        self.stats.bump(f"{self._name}.reservations")
        return True

    def clear_reservation(self, proc: int) -> None:
        if self._reserved_by == proc:
            self._reserved_by = None

    @property
    def reserved_by(self) -> Optional[int]:
        return self._reserved_by

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._active)

    @property
    def list_empty(self) -> bool:
        return not self._active

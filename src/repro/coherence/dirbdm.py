"""The DirBDM: bulk operations at the directory (paper Section 4.3).

When a directory module receives the W signature of a committing chunk it

1. *expands* the signature — decode (δ) selects candidate directory sets,
   the entries in those sets are looked up, and the membership test (∈)
   keeps the possible writers;
2. applies the Table 1 case analysis to each selected entry, building the
   *invalidation list* of processors that must receive W for bulk
   disambiguation and updating ownership;
3. *read-disables* the lines in W until every invalidation is
   acknowledged, bouncing incoming reads that hit them (the conservative
   implementation of the single-sequential-order requirement).

The module keeps precise aliasing statistics (unnecessary lookups and
updates) by comparing against the signature's ground-truth member set —
bookkeeping the simulated hardware never sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.coherence.directory import DirectoryEntry, DirectoryModule
from repro.engine.stats import StatsRegistry
from repro.signatures.base import Signature


@dataclass
class ExpansionOutcome:
    """Result of expanding one committing W signature at one directory."""

    invalidation_list: Set[int] = field(default_factory=set)
    lookups: int = 0
    unnecessary_lookups: int = 0
    updates: int = 0
    unnecessary_updates: int = 0
    #: Lines (from this module's slice) that were actually selected; used
    #: by the commit transaction to know what to invalidate in caches.
    selected_lines: List[int] = field(default_factory=list)


class DirBDM:
    """Bulk disambiguation support attached to one directory module."""

    def __init__(
        self,
        directory: DirectoryModule,
        stats: Optional[StatsRegistry] = None,
    ):
        self.directory = directory
        self.stats = stats if stats is not None else StatsRegistry("dirbdm")
        # Active read-disables: commit id -> W signature still being made
        # visible.  Incoming reads are membership-tested against each.
        self._read_disabled: Dict[int, Signature] = {}

    # ------------------------------------------------------------------
    # Signature expansion + Table 1 actions
    # ------------------------------------------------------------------
    def expand_commit(
        self,
        w_signature: Signature,
        committing_proc: int,
        true_written_lines: Optional[Set[int]] = None,
    ) -> ExpansionOutcome:
        """Process a committing chunk's W signature (Table 1).

        Args:
            w_signature: The committing chunk's W signature (restricted to
                this module's address slice by the caller or not — entries
                of other modules simply fail the membership test).
            committing_proc: Processor committing the chunk.
            true_written_lines: Ground-truth write set, for aliasing
                statistics only.

        Returns:
            The invalidation list and bookkeeping counts.
        """
        outcome = ExpansionOutcome()
        truth = true_written_lines if true_written_lines is not None else set()
        # Decode (δ) into the directory's own set geometry: the paper notes
        # the directory uses a different δ than the caches.
        directory = self.directory
        num_sets = directory.INDEX_SETS
        candidate_sets = w_signature.decode_sets(num_sets)
        if not candidate_sets:
            return outcome
        entries = directory.entries_in_sets(candidate_sets, num_sets)
        hits = w_signature.member_many([entry.line_addr for entry in entries])
        for entry, hit in zip(entries, hits):
            if not hit:
                continue
            outcome.lookups += 1
            truly_written = entry.line_addr in truth
            if not truly_written:
                outcome.unnecessary_lookups += 1
            self._apply_table1(entry, committing_proc, truly_written, outcome)
        self.stats.bump("dirbdm.expansions")
        self.stats.bump("dirbdm.lookups", outcome.lookups)
        self.stats.bump("dirbdm.unnecessary_lookups", outcome.unnecessary_lookups)
        self.stats.bump("dirbdm.updates", outcome.updates)
        self.stats.bump("dirbdm.unnecessary_updates", outcome.unnecessary_updates)
        return outcome

    def _apply_table1(
        self,
        entry: DirectoryEntry,
        committing_proc: int,
        truly_written: bool,
        outcome: ExpansionOutcome,
    ) -> None:
        """One row of the paper's Table 1."""
        committing_in_vector = committing_proc in entry.sharers
        if not entry.dirty and not committing_in_vector:
            # Case 1: false positive — a real writer would already be a
            # sharer (its write miss fetched the line as a read).
            return
        if not entry.dirty and committing_in_vector:
            # Case 2: the committing processor becomes the owner; all other
            # sharers join the invalidation list.
            others = entry.sharers - {committing_proc}
            outcome.invalidation_list |= others
            entry.make_owner(committing_proc)
            outcome.updates += 1
            if not truly_written:
                outcome.unnecessary_updates += 1
            outcome.selected_lines.append(entry.line_addr)
            return
        if entry.dirty and not committing_in_vector:
            # Case 3: false positive — do nothing.
            return
        # Case 4: dirty and committing proc present; if it is the owner
        # there is nothing to do.  (With dirty set the sharer vector holds
        # only the owner.)
        if entry.owner == committing_proc:
            outcome.selected_lines.append(entry.line_addr)
        return

    # ------------------------------------------------------------------
    # Read-disable of in-flight committed lines (Section 4.3.2)
    # ------------------------------------------------------------------
    def disable_reads(self, commit_id: int, w_signature: Signature) -> None:
        """Begin bouncing reads that hit the committing chunk's W.

        Idempotent: a duplicated commit message re-disabling the same
        commit is counted and otherwise ignored, so retried grants under
        fault injection cannot corrupt the disable window.
        """
        if commit_id in self._read_disabled:
            self.stats.bump("dirbdm.duplicate_disables")
            return
        self._read_disabled[commit_id] = w_signature

    def enable_reads(self, commit_id: int) -> None:
        """All invalidation acks arrived; lines become readable again.

        Idempotent against duplicated ack-completion messages.
        """
        if commit_id not in self._read_disabled:
            self.stats.bump("dirbdm.duplicate_enables")
            return
        self._read_disabled.pop(commit_id)

    def is_read_disabled(self, line_addr: int) -> bool:
        """Membership-test an incoming read against every active commit.

        A hit bounces the read (it retries after the commit completes).
        Aliasing can bounce innocent reads; that costs latency, never
        correctness.
        """
        for signature in self._read_disabled.values():
            if signature.member(line_addr):
                self.stats.bump("dirbdm.bounced_reads")
                return True
        return False

    def any_read_disabled(self) -> bool:
        """True while any commit's read-disable window is open.

        A side-effect-free guard: unlike :meth:`is_read_disabled` it
        tests no address and bumps no counter, so a caller may use it to
        decide whether a read can skip the membership test entirely.
        """
        return bool(self._read_disabled)

    def reconcile_recovery(self, live_commit_ids: Set[int]) -> int:
        """Drop read-disables owned by commits that died with an arbiter.

        After an arbiter crash the recovery manager passes the surviving
        in-flight commit ids; any disable whose commit is gone would
        otherwise bounce reads forever (its ``enable_reads`` will never
        arrive).  Normally a no-op — disables are paired with live
        transactions — so the count is the interesting signal.
        """
        dead = [cid for cid in self._read_disabled if cid not in live_commit_ids]
        for cid in dead:
            self._read_disabled.pop(cid)
        if dead:
            self.stats.bump("dirbdm.recovery_released_disables", len(dead))
        return len(dead)

    @property
    def active_commits(self) -> int:
        return len(self._read_disabled)

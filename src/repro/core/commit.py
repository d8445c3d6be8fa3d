"""The chunk-commit transaction (paper Sections 3.2, 4.2, 4.3; Figures 7/8).

One :class:`CommitEngine` per machine orchestrates every commit:

1. **Arbitration** — the processor sends a permission-to-commit request.
   Under the RSig optimization the request carries only W; if the
   arbiter's list is non-empty it asks for R (one extra round trip).
   Denied requests retry.
2. **Grant = the chunk's atomic instant.**  The W signature joins the
   arbiter's list (empty W skips the list), the chunk's buffered updates
   reach the global memory image, its operations enter the execution
   history in program order, each home directory's DirBDM expands W
   (Table 1) to build the invalidation list and read-disable the written
   lines, and W is forwarded to the listed processors whose BDMs
   disambiguate — squashing colliding chunks — and bulk-invalidate stale
   copies.
3. **Acknowledgement** — done messages flow back on a delayed event; the
   arbiter then drops W and the directories re-enable reads.

Modelling note: the paper lets different directory modules re-enable
access at different times and relies on the arbiter's R-vs-listed-W check
to forbid the Figure 4(b) out-of-order-commit corner.  We collapse the
visibility of one chunk to a single event — the *arbiter's grant
instant* (:meth:`CommitEngine._serialize`), which is the limit case of
that design: the R∩W arbiter check, read-disable bouncing, and ack
latencies are all still modeled and measured — they shape timing and
traffic — while atomicity of the memory image is exact by construction.
The grant *message* to the processor is a separate (injectable) leg:
delaying it postpones the processor-side effects but cannot move the
chunk's position in the SC total order, because that position was fixed
when the arbiter decided.

Resilience (fault injection)
----------------------------
Each injectable message leg — request→decision (``COMMIT_REQUEST``),
decision→grant reception (``GRANT``), W delivery to each victim
(``INVALIDATION``), and ack collection (``ACK``) — is routed through the
machine's :class:`~repro.faults.injector.FaultInjector`, which in the
fault-free case reproduces the direct scheduling bit-for-bit.  When the
injector is active a per-transaction watchdog is armed for every phase;
on timeout it retries the lost leg with exponential backoff up to
``resilience.max_commit_retries`` times, then raises
:class:`~repro.errors.CommitTimeoutError` carrying the fault trace.  With
retries disabled the first timeout raises
:class:`~repro.errors.FaultInducedError` instead, so a chaos run that
cannot make progress fails *diagnosably* rather than livelocking.

Why delayed or dropped invalidations cannot break SC: the committer's W
stays in the arbiter's active list until :meth:`CommitEngine._finish`,
and ``_finish`` requires every invalidation delivered and the ack sweep
to succeed.  A victim still reading stale lines therefore cannot commit a
colliding chunk — the arbiter's R∩W / W∩W checks deny it — until the
(re-sent) invalidation arrives and squashes it.  Delay converts into
denial-latency, never into a consistency violation.

Epochs and leases (arbiter crash recovery)
------------------------------------------
A transaction resolves the address ranges its chunk touched once, at
submission (the central arbiter is the one-range case, so every chunk
there is in range 0).  Every grant carries a *lease*: the epoch of each
involved range arbiter's incarnation at the grant instant.
``_on_grant_received`` rejects a grant
whose lease no longer matches the live epochs (the issuing incarnation
crashed after serializing but before the message landed), and release /
abort quote the lease back so the arbiter can tell a post-crash release
(tolerated) from a real protocol bug (raises under ``strict_protocol``).
After a crash the :class:`~repro.core.recovery.ArbiterRecoveryManager`
walks :meth:`CommitEngine.inflight_transactions` to re-admit surviving
W signatures and re-issue grants under the new epoch
(:meth:`CommitEngine.recovery_renew`).
"""

from __future__ import annotations

import enum
import weakref
from typing import Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.chunk import Chunk, ChunkState
from repro.engine.event import Event
from repro.engine.stats import StatsRegistry
from repro.errors import CommitTimeoutError, FaultInducedError, ProtocolError
from repro.faults.plan import FaultPoint
from repro.interconnect.network import Network
from repro.interconnect.traffic import TrafficClass
from repro.params import PrivateDataMode
from repro.signatures.compression import compressed_size_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import Machine


class TxnPhase(enum.Enum):
    """Where a commit transaction is in its life cycle."""

    DECIDING = "deciding"  # request sent, awaiting arbiter decision
    GRANT_SENT = "grant-sent"  # admitted at arbiter, grant message in flight
    ACKS_PENDING = "acks-pending"  # visible; invalidations/acks outstanding
    DONE = "done"
    ABANDONED = "abandoned"  # squash raced the transaction


class CommitTransaction:
    """Book-keeping for one in-flight commit.

    ``commit_id`` is assigned by the owning :class:`CommitEngine` from a
    per-machine counter, never from process-global state: commit ids
    appear in event labels and replay traces, so two identical runs in
    one process must number their transactions identically.
    """

    def __init__(
        self,
        commit_id: int,
        chunk: Chunk,
        ranges: Tuple[int, ...],
        on_committed: Callable[[Chunk], None],
        on_granted: Optional[Callable[[Chunk], None]] = None,
    ):
        self.commit_id = commit_id
        self.chunk = chunk
        #: The address ranges the chunk touched, resolved at submission.
        self.ranges = ranges
        self.on_committed = on_committed
        self.on_granted = on_granted
        self.r_signature_sent = False
        # Signatures are frozen once the chunk is COMPLETE, so the wire
        # size of W is computed once and reused across retries, directory
        # fan-out, and per-victim delivery (it's a popcount over ~2 Kbit).
        self._w_sig_bytes: Optional[int] = None
        # Resilience state --------------------------------------------------
        self.phase = TxnPhase.DECIDING
        #: Bumped on every (re)send of the commit request; decisions from
        #: an older send are stale and ignored.
        self.request_epoch = 0
        #: True once the arbiter admitted our (non-empty) W — release/abort
        #: must happen exactly when this is set.
        self.admitted = False
        self.retry_pending = False
        #: The range arbiters' epochs the grant was issued under, aligned
        #: with ``ranges`` — ``None`` until granted.
        self.lease: Optional[Tuple[int, ...]] = None
        self.home_dirs: List[int] = []
        #: Victims whose W delivery has not executed yet (lost/late legs).
        self.pending_invalidations: Set[int] = set()
        self.watchdog: Optional[Event] = None
        self.timeouts = 0

    def w_sig_bytes(self) -> int:
        """Compressed wire size of the (frozen) W signature, memoized."""
        if self._w_sig_bytes is None:
            self._w_sig_bytes = compressed_size_bytes(self.chunk.w_sig)
        return self._w_sig_bytes


class CommitEngine:
    """Runs the commit protocol for every processor."""

    #: Directory-side processing time for signature expansion, cycles.
    DIRECTORY_PROCESS_CYCLES = 5
    #: Processor-side disambiguation + ack turnaround, cycles.
    ACK_TURNAROUND_CYCLES = 3

    def __init__(self, machine: "Machine"):
        #: Weak: the machine owns the engine.  Its driver-side services
        #: (delivery, missed-collision check, spurious squash) reach the
        #: drivers, which hold the engine; every other collaborator is
        #: held directly.
        self.machine = weakref.proxy(machine)
        self.sim = machine.sim
        self.config = machine.config
        self.bulk_config = machine.config.bulksc
        self.resilience = machine.config.bulksc.resilience
        self.network: Network = machine.coherence.network
        self.stats: StatsRegistry = machine.stats
        self.injector = machine.fault_injector
        self.arbiter = machine.arbiter
        self.dirbdms = machine.dirbdms
        self.coherence = machine.coherence
        self.memory = machine.memory
        self.history = machine.history
        self.sync = machine.sync
        #: The machine's event stream (see :meth:`Machine.subscribe`).
        self.subscribers = machine.subscribers
        self._hop = machine.config.network_hop_cycles
        self._next_commit_id = 0
        #: Live transactions by commit id — the recovery manager polls
        #: this (the "ask every processor for its outstanding commit"
        #: step) to rebuild a crashed arbiter's W-list.
        self._inflight: Dict[int, CommitTransaction] = {}

    # ------------------------------------------------------------------
    # Submission (called by drivers when a chunk may arbitrate)
    # ------------------------------------------------------------------
    def submit(
        self,
        chunk: Chunk,
        at_time: float,
        on_committed: Callable[[Chunk], None],
        on_granted: Optional[Callable[[Chunk], None]] = None,
    ) -> CommitTransaction:
        """Begin arbitration for a completed chunk."""
        if chunk.state is not ChunkState.COMPLETE:
            raise ProtocolError(
                f"chunk {chunk.chunk_id} submitted in state {chunk.state}"
            )
        self._next_commit_id += 1
        ranges = self.arbiter.ranges_of(
            chunk.true_written_lines, chunk.true_read_lines
        )
        txn = CommitTransaction(
            self._next_commit_id, chunk, ranges, on_committed, on_granted
        )
        self._inflight[txn.commit_id] = txn
        chunk.mark(ChunkState.ARBITRATING)
        # With the RSig optimization the first message carries only W;
        # without it, R travels with every request.
        self._send_request(
            txn, at_time, include_r=not self.bulk_config.rsig_optimization
        )
        return txn

    # ------------------------------------------------------------------
    # Arbitration message flow
    # ------------------------------------------------------------------
    def _send_request(
        self, txn: CommitTransaction, at_time: float, include_r: bool
    ) -> None:
        chunk = txn.chunk
        ranges = txn.ranges
        proc_node = Network.proc(chunk.proc)
        arb_node = Network.arbiter(ranges[0] if len(ranges) == 1 else 0)
        # Permission-to-commit always carries W; R only when requested
        # (the RSig optimization) or when RSig is disabled.  Once R has
        # been shipped for this transaction the arbiter keeps it, so
        # denial retries do not re-transfer it.
        self.network.send(
            proc_node, arb_node, TrafficClass.WR_SIG, txn.w_sig_bytes()
        )
        if include_r and not txn.r_signature_sent:
            self.network.send(
                proc_node,
                arb_node,
                TrafficClass.RD_SIG,
                compressed_size_bytes(chunk.r_sig),
            )
            txn.r_signature_sent = True
            self.stats.bump("commit.r_signatures_sent")
        decision_delay = self.bulk_config.commit_arbitration_latency
        if include_r and self.bulk_config.rsig_optimization:
            # The RSig second round: the arbiter had to come back for R.
            decision_delay += 2 * self._hop
        if len(ranges) > 1:
            # Figure 8(b): the request detours through the G-arbiter,
            # which fans out to every involved range arbiter and combines
            # their verdicts — two extra fabric crossings plus the fan-out
            # control messages.
            garb = Network.global_arbiter()
            self.network.control(proc_node, garb)
            for r in ranges:
                self.network.control(garb, Network.arbiter(r))
                self.network.control(Network.arbiter(r), garb)
            decision_delay += 2 * self._hop
        when = max(at_time, self.sim.now)
        txn.request_epoch += 1
        epoch = txn.request_epoch
        self.injector.deliver(
            FaultPoint.COMMIT_REQUEST,
            lambda: self._decide(txn, include_r, epoch),
            delay=(when - self.sim.now) + decision_delay,
            label=f"commit{txn.commit_id}.decide",
        )
        self._rearm_watchdog(
            txn, lead=(when - self.sim.now) + decision_delay,
            timeout=self.resilience.commit_timeout_cycles,
        )

    def _decide(self, txn: CommitTransaction, r_included: bool, epoch: int) -> None:
        chunk = txn.chunk
        now = self.sim.now
        if txn.phase is not TxnPhase.DECIDING:
            # A duplicated or reordered request produced a second decision
            # after we already moved on; the arbiter recognizes the
            # transaction id and discards it.
            self.stats.bump("commit.duplicate_decisions")
            return
        if epoch != txn.request_epoch:
            # Decision for a request the watchdog already re-sent.
            self.stats.bump("commit.stale_decisions")
            return
        if chunk.state is ChunkState.SQUASHED:
            # Squash raced the arbitration; abandon silently.
            self._abandon(txn)
            return
        include_r_next = r_included or not self.bulk_config.rsig_optimization
        r_sig = chunk.r_sig if include_r_next else None
        decision = self.arbiter.decide(
            chunk.proc, chunk.w_sig, r_sig, txn.ranges, now
        )
        if decision.used_g_arbiter:
            self.stats.bump("commit.g_arbiter_transactions")
        for subscriber in self.subscribers:
            subscriber("arb.decide", chunk.proc, decision)
        if decision.needs_r_signature:
            # RSig protocol: fetch R and re-decide.
            self._send_request(txn, now, include_r=True)
            return
        if not decision.granted:
            self.stats.bump("commit.denials")
            if not txn.retry_pending:
                txn.retry_pending = True
                self.sim.after(
                    self.bulk_config.commit_retry_delay,
                    lambda: self._retry(txn),
                    label=f"commit{txn.commit_id}.retry",
                )
            return
        self._grant_at_arbiter(txn)

    def _retry(self, txn: CommitTransaction) -> None:
        txn.retry_pending = False
        if txn.phase is not TxnPhase.DECIDING:
            return
        if txn.chunk.state is ChunkState.SQUASHED:
            self._abandon(txn)
            return
        include_r = txn.r_signature_sent or not self.bulk_config.rsig_optimization
        self._send_request(txn, self.sim.now, include_r=include_r)

    # ------------------------------------------------------------------
    # Grant: the chunk's atomic instant
    # ------------------------------------------------------------------
    def _grant_at_arbiter(self, txn: CommitTransaction) -> None:
        """The arbiter granted: admit W, then ship the grant message."""
        chunk = txn.chunk
        now = self.sim.now
        self.stats.bump("commit.grants")
        if chunk.w_sig.is_empty():
            self.stats.bump("commit.empty_w_commits")
        else:
            self.arbiter.admit(
                txn.commit_id, chunk.proc, chunk.w_sig, txn.ranges, now
            )
            txn.admitted = True
        txn.lease = self.arbiter.lease_for(txn.ranges)
        self._serialize(txn)
        txn.phase = TxnPhase.GRANT_SENT
        self._send_grant(txn)

    def _serialize(self, txn: CommitTransaction) -> None:
        """Serialize the chunk at the arbiter's grant instant.

        The grant decision — not its reception at the processor — is the
        chunk's position in the SC total order: every later decision is
        checked against this W (and every granted R already cleared the
        list).  Publishing the memory image and the history here, and
        marking the chunk GRANTED (squash-immune, see
        :attr:`~repro.core.chunk.Chunk.is_active`), keeps that order
        intact even when the grant message itself is delayed or dropped:
        a late grant only postpones the processor-side effects, it cannot
        let a younger commit overtake this one in the visibility order.
        """
        chunk = txn.chunk
        now = self.sim.now
        for subscriber in self.subscribers:
            subscriber("commit.serialize", chunk.proc, txn)
        self.memory.write_many(chunk.commit_updates())
        self.history.record_ops(now, chunk.proc, chunk.chunk_id, chunk.ops)
        chunk.mark(ChunkState.GRANTED)

    def _send_grant(self, txn: CommitTransaction) -> None:
        """Deliver the grant to the processor (injectable leg).

        In the fault-free model the decision latency already covers the
        return hop, so delivery is synchronous; a dropped or delayed grant
        leaves the W admitted at the arbiter until the watchdog re-sends
        or the squash path aborts it.
        """
        self.injector.deliver(
            FaultPoint.GRANT,
            # Bind the lease at send time: a crash between send and
            # delivery renews ``txn.lease``, and this (now stale) copy is
            # what lets the receiver reject the dead incarnation's grant.
            lambda lease=txn.lease: self._on_grant_received(txn, lease),
            delay=0.0,
            label=f"commit{txn.commit_id}.grant",
        )

    def _on_grant_received(
        self, txn: CommitTransaction, lease: Optional[Tuple[int, ...]] = None
    ) -> None:
        chunk = txn.chunk
        if txn.phase is not TxnPhase.GRANT_SENT:
            # Duplicate grant message (dup/reorder fault, or a watchdog
            # re-send whose original eventually arrived).
            self.stats.bump("commit.duplicate_grants")
            return
        if lease is not None and (
            lease != txn.lease or not self.arbiter.lease_valid(txn.ranges, lease)
        ):
            # The issuing arbiter incarnation died in flight.  The
            # recovery manager will re-issue this grant under the new
            # epoch; accepting the dead one could race it.
            self.stats.bump("commit.stale_epoch_grants")
            return
        # The chunk was serialized (and marked GRANTED, hence
        # squash-immune) at the arbiter instant, so no squash can have
        # raced the grant message here.
        if txn.on_granted is not None:
            txn.on_granted(chunk)
        # Statically-private coherence: Wpriv goes straight to the
        # directory for expansion (Section 5.1).
        if (
            self.bulk_config.private_data_mode is PrivateDataMode.STATIC
            and not chunk.wpriv_sig.is_empty()
        ):
            self._expand_wpriv(chunk)
        if chunk.w_sig.is_empty():
            # Only private data written: nothing to expand or invalidate.
            self._make_visible(txn, invalidation_procs=set())
            self._finish(txn)
            return
        home_dirs = self._home_directories(chunk)
        txn.home_dirs = home_dirs
        ranges = txn.ranges
        arb_node = Network.arbiter(ranges[0] if len(ranges) == 1 else 0)
        invalidation_procs: Set[int] = set()
        lookups = 0
        for dir_index in home_dirs:
            self.network.send(
                arb_node,
                Network.directory(dir_index),
                TrafficClass.WR_SIG,
                txn.w_sig_bytes(),
            )
            dirbdm = self.dirbdms[dir_index]
            outcome = dirbdm.expand_commit(
                chunk.w_sig, chunk.proc, chunk.true_written_lines
            )
            for subscriber in self.subscribers:
                subscriber(
                    "dir.expand", None, dir_index, chunk, chunk.true_written_lines,
                    outcome,
                )
            dirbdm.disable_reads(txn.commit_id, chunk.w_sig)
            invalidation_procs |= outcome.invalidation_list
            lookups += outcome.lookups
            dir_node = Network.directory(dir_index)
            for proc in outcome.invalidation_list:
                if proc == chunk.proc:
                    continue
                self.network.send(
                    dir_node,
                    Network.proc(proc),
                    TrafficClass.WR_SIG,
                    txn.w_sig_bytes(),
                )
        invalidation_procs.discard(chunk.proc)
        # Signature false-positive storm: the injector can force the
        # worst case Table 1 allows, where aliasing puts every other
        # processor on the invalidation list.
        storm = self.injector.storm_procs(self.config.num_processors, chunk.proc)
        if storm:
            extra = set(storm) - invalidation_procs
            self.stats.bump("commit.storm_extra_invalidations", len(extra))
            storm_node = Network.directory(home_dirs[0])
            for proc in sorted(extra):
                self.network.send(
                    storm_node,
                    Network.proc(proc),
                    TrafficClass.WR_SIG,
                    txn.w_sig_bytes(),
                )
            invalidation_procs |= extra
        self.stats.distribution("commit.nodes_per_w_sig").sample(
            len(invalidation_procs)
        )
        self.stats.distribution("commit.expansion_lookups").sample(lookups)
        self._make_visible(txn, invalidation_procs)
        # Delayed acknowledgements: processors answer the directories,
        # which tell the arbiter; then W leaves the list and reads
        # re-enable.  This delay is what the arbiter-occupancy and
        # bounced-read statistics measure.
        for dir_index in home_dirs:
            dir_node = Network.directory(dir_index)
            for proc in sorted(invalidation_procs):
                self.network.send(Network.proc(proc), dir_node, TrafficClass.INV, 0)
            self.network.control(dir_node, arb_node)
        ack_delay = 2 * self._hop + self.DIRECTORY_PROCESS_CYCLES + self.ACK_TURNAROUND_CYCLES
        txn.phase = TxnPhase.ACKS_PENDING
        self._send_ack_sweep(txn, ack_delay)
        self._rearm_watchdog(
            txn, lead=ack_delay, timeout=self.resilience.ack_timeout_cycles
        )

    def _send_ack_sweep(self, txn: CommitTransaction, ack_delay: float) -> None:
        """Schedule the combined done/ack message (injectable leg)."""
        self.injector.deliver(
            FaultPoint.ACK,
            lambda: self._collect_acks(txn),
            delay=ack_delay,
            label=f"commit{txn.commit_id}.acks",
        )

    def _collect_acks(self, txn: CommitTransaction) -> None:
        if txn.phase is not TxnPhase.ACKS_PENDING:
            self.stats.bump("commit.duplicate_acks")
            return
        if txn.pending_invalidations:
            # Some victims have not seen W yet (lost or delayed delivery);
            # the arbiter must keep the W listed, so the done message is
            # rejected and the watchdog will re-sweep.
            self.stats.bump("commit.acks_incomplete")
            return
        self._finish(txn)

    def _home_directories(self, chunk: Chunk) -> List[int]:
        dirs = sorted(
            {
                self.coherence.address_map.directory_of(line)
                for line in chunk.true_written_lines
            }
        )
        return dirs or [0]

    def _expand_wpriv(self, chunk: Chunk) -> None:
        proc_node = Network.proc(chunk.proc)
        home_dirs = sorted(
            {
                self.coherence.address_map.directory_of(line)
                for line in chunk.true_private_lines
            }
        ) or [0]
        for dir_index in home_dirs:
            self.network.send(
                proc_node,
                Network.directory(dir_index),
                TrafficClass.WR_SIG,
                compressed_size_bytes(chunk.wpriv_sig),
            )
            outcome = self.dirbdms[dir_index].expand_commit(
                chunk.wpriv_sig, chunk.proc, chunk.true_private_lines
            )
            for subscriber in self.subscribers:
                subscriber(
                    "dir.expand", None, dir_index, chunk, chunk.true_private_lines,
                    outcome,
                )
        self.stats.bump("commit.wpriv_expansions")

    def _finish(self, txn: CommitTransaction) -> None:
        self._cancel_watchdog(txn)
        txn.phase = TxnPhase.DONE
        self._inflight.pop(txn.commit_id, None)
        for dir_index in txn.home_dirs:
            self.dirbdms[dir_index].enable_reads(txn.commit_id)
        if txn.admitted:
            self.arbiter.release(txn.commit_id, self.sim.now, lease=txn.lease)
            txn.admitted = False
        self.stats.bump("commit.completed")

    def _abandon(self, txn: CommitTransaction) -> None:
        """A squash overtook the transaction; withdraw all protocol state."""
        self._cancel_watchdog(txn)
        txn.phase = TxnPhase.ABANDONED
        self._inflight.pop(txn.commit_id, None)
        for dir_index in txn.home_dirs:
            self.dirbdms[dir_index].enable_reads(txn.commit_id)
        if txn.admitted:
            self.arbiter.abort(txn.commit_id, self.sim.now, lease=txn.lease)
            txn.admitted = False
        self.stats.bump("commit.abandoned_by_squash")

    # ------------------------------------------------------------------
    # Epoch/lease bookkeeping (arbiter crash recovery)
    # ------------------------------------------------------------------
    def inflight_transactions(self) -> List[CommitTransaction]:
        """Live transactions, in commit-id order (deterministic)."""
        return [self._inflight[cid] for cid in sorted(self._inflight)]

    def reresolve_ranges(self, chunk: Chunk) -> None:
        """Re-resolve an arbitrating chunk's ranges after its W grew.

        A Private Buffer add-back (Section 5.2) can put a line into the W
        of a chunk that is still arbitrating; its next decision and its
        admission must cover that line's range too.
        """
        for txn in self._inflight.values():
            if txn.chunk is chunk:
                txn.ranges = self.arbiter.ranges_of(
                    chunk.true_written_lines, chunk.true_read_lines
                )

    def recovery_renew(self, txn: CommitTransaction) -> int:
        """Re-stamp a surviving transaction with the new incarnation's lease.

        Called by the recovery manager after (optionally) re-admitting the
        W.  A transaction whose grant message died with the old epoch
        (phase still GRANT_SENT) gets the grant re-sent under the fresh
        lease; returns the number of grants re-sent (0 or 1).
        """
        txn.lease = self.arbiter.lease_for(txn.ranges)
        if txn.phase is TxnPhase.GRANT_SENT:
            self.stats.bump("commit.recovery_grant_resends")
            self._send_grant(txn)
            return 1
        return 0

    # ------------------------------------------------------------------
    # Watchdogs & bounded retry (resilience)
    # ------------------------------------------------------------------
    def _rearm_watchdog(
        self, txn: CommitTransaction, lead: float, timeout: float
    ) -> None:
        """Arm the per-transaction watchdog ``lead + timeout`` cycles out.

        ``lead`` is the latency of the milestone we expect (decision or
        ack sweep) so injected delays below ``timeout`` never false-fire.
        Watchdogs only exist under fault injection: in fault-free runs the
        protocol is closed and the extra events would be pure overhead.
        """
        self._cancel_watchdog(txn)
        if not self.injector.active or timeout <= 0:
            return
        txn.watchdog = self.sim.after(
            lead + timeout,
            lambda: self._on_watchdog(txn),
            label=f"commit{txn.commit_id}.watchdog",
        )

    def _cancel_watchdog(self, txn: CommitTransaction) -> None:
        if txn.watchdog is not None:
            txn.watchdog.cancel()
            txn.watchdog = None

    def _on_watchdog(self, txn: CommitTransaction) -> None:
        txn.watchdog = None
        if txn.phase in (TxnPhase.DONE, TxnPhase.ABANDONED):
            return
        if txn.chunk.state is ChunkState.SQUASHED:
            self._abandon(txn)
            return
        txn.timeouts += 1
        self.stats.bump("commit.watchdog_timeouts")
        injector = self.injector
        where = (
            f"commit {txn.commit_id} (P{txn.chunk.proc}, chunk "
            f"{txn.chunk.chunk_id}) stalled in phase {txn.phase.value} "
            f"at cycle {self.sim.now:.0f}"
        )
        if not self.resilience.retries_enabled:
            raise FaultInducedError(
                f"{where} with retries disabled; injected faults: "
                f"{injector.summary()}",
                fault_trace=injector.trace,
            )
        if txn.timeouts > self.resilience.max_commit_retries:
            raise CommitTimeoutError(
                f"{where} after {self.resilience.max_commit_retries} retries; "
                f"injected faults: {injector.summary()}",
                fault_trace=injector.trace,
            )
        backoff = min(
            self.resilience.retry_backoff_base * (2 ** (txn.timeouts - 1)),
            self.resilience.retry_backoff_cap,
        )
        if txn.phase is TxnPhase.DECIDING:
            self.stats.bump("commit.request_resends")
            include_r = txn.r_signature_sent or not self.bulk_config.rsig_optimization
            self.sim.after(
                backoff,
                lambda: self._resend_request(txn, include_r),
                label=f"commit{txn.commit_id}.resend",
            )
            return
        if txn.phase is TxnPhase.GRANT_SENT:
            self.stats.bump("commit.grant_resends")
            self.sim.after(
                backoff,
                lambda: self._resend_grant(txn),
                label=f"commit{txn.commit_id}.resend",
            )
            self._rearm_watchdog(
                txn, lead=backoff, timeout=self.resilience.commit_timeout_cycles
            )
            return
        # ACKS_PENDING: re-deliver W to victims that never saw it, then
        # sweep the acks again.
        self.stats.bump("commit.ack_recollections")
        for proc in sorted(txn.pending_invalidations):
            self._send_invalidation(txn, proc)
        ack_delay = (
            2 * self._hop + self.DIRECTORY_PROCESS_CYCLES + self.ACK_TURNAROUND_CYCLES
        )
        self.sim.after(
            backoff,
            lambda: self._send_ack_sweep(txn, ack_delay),
            label=f"commit{txn.commit_id}.resend",
        )
        self._rearm_watchdog(
            txn,
            lead=backoff + ack_delay,
            timeout=self.resilience.ack_timeout_cycles,
        )

    def _resend_request(self, txn: CommitTransaction, include_r: bool) -> None:
        if txn.phase is not TxnPhase.DECIDING:
            return
        if txn.chunk.state is ChunkState.SQUASHED:
            self._abandon(txn)
            return
        self._send_request(txn, self.sim.now, include_r=include_r)

    def _resend_grant(self, txn: CommitTransaction) -> None:
        if txn.phase is not TxnPhase.GRANT_SENT:
            return
        self._send_grant(txn)

    # ------------------------------------------------------------------
    # Visibility: the atomic instant of the chunk
    # ------------------------------------------------------------------
    def _make_visible(self, txn: CommitTransaction, invalidation_procs: Set[int]) -> None:
        """Processor-side completion of a commit already serialized.

        The memory image and history were published by
        :meth:`_serialize` at the arbiter's grant instant; this runs when
        the grant message reaches the processor and performs the remote
        disambiguation, cache ownership transfer, and wake-ups.
        """
        chunk = txn.chunk
        now = self.sim.now
        machine = self.machine
        # Remote disambiguation.  W is forwarded only to the directory's
        #    invalidation list — the Table 1 filter keeps signature
        #    aliasing from squashing processors that share nothing with
        #    the committer.  For every other processor we verify against
        #    ground truth that no real conflict was missed (the paper
        #    argues this cannot happen because every read registers its
        #    processor as a sharer; the counter proves it).
        for proc in range(self.config.num_processors):
            if proc == chunk.proc:
                continue
            if proc in invalidation_procs:
                txn.pending_invalidations.add(proc)
                self._send_invalidation(txn, proc)
            else:
                machine.check_missed_collision(proc, chunk, now)
        # The committing processor's cache now holds the only copies,
        # dirty (Table 1 case 2 made it the owner).
        for line in chunk.true_written_lines:
            self.coherence.mark_dirty_owner(chunk.proc, line)
        # Wake any spinners on values this chunk published.
        for word_addr, value in chunk.commit_updates():
            self.sync.notify_write(word_addr, value)
        chunk.mark(ChunkState.COMMITTED)
        self.stats.bump("commit.visible")
        # Spurious-squash fault: the environment squashes an innocent
        # processor as though its BDM had found a collision.
        for victim in self.injector.squash_victims(
            self.config.num_processors, chunk.proc
        ):
            self.stats.bump("commit.spurious_squashes")
            machine.inject_spurious_squash(victim, self.sim.now)
        txn.on_committed(chunk)

    def _send_invalidation(self, txn: CommitTransaction, proc: int) -> None:
        """Forward W to one victim's BDM (injectable leg, sync fault-free)."""
        self.injector.deliver(
            FaultPoint.INVALIDATION,
            lambda: self._deliver_invalidation(txn, proc),
            delay=0.0,
            label=f"commit{txn.commit_id}.inv.p{proc}",
        )

    def _deliver_invalidation(self, txn: CommitTransaction, proc: int) -> None:
        if proc not in txn.pending_invalidations:
            # Duplicate delivery (dup fault or watchdog re-send racing the
            # delayed original); the victim BDM keys on commit_id, so the
            # second copy is discarded.
            self.stats.bump("commit.duplicate_invalidations")
            return
        txn.pending_invalidations.discard(proc)
        for subscriber in self.subscribers:
            subscriber("inv.deliver", proc, txn)
        self.machine.deliver_commit_to_proc(proc, txn.chunk, self.sim.now)

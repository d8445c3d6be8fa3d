"""The BulkSC processor driver (paper Sections 3, 4.1).

Processors repeatedly — and only — execute chunks, separated by
checkpoints.  Within a chunk every memory access overlaps and reorders
freely: loads gate only their dependent uses (like RC loads) and stores
are completely wait-free (they retire into the chunk's write buffer).
Explicit synchronization inserts no fences: lock acquires and flag spins
execute speculatively inside chunks, and a processor that loses a race is
squashed and replayed by the winner's commit — exactly the paper's
Figure 6 semantics.

The driver owns chunk lifecycle: creation (checkpoint + fresh signature
triple in the BDM), closing (instruction budget, cache-set overflow,
barriers, program end), in-order commit submission, squash-and-replay
(with exponential shrink and pre-arbitration for forward progress), and
the private-data store classification of Section 5.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple, TYPE_CHECKING

from repro.coherence.directory import DirectoryModule
from repro.core.chunk import Chunk, ChunkState
from repro.core.chunking import ChunkingPolicy
from repro.cpu.checkpoint import Checkpoint
from repro.cpu.driver import DriverState, ProcessorDriver
from repro.cpu.isa import Barrier, Io, LockAcquire, SpinUntil, resolve_operand
from repro.cpu.opstream import K_COMPUTE, K_FENCE, K_LOAD, K_SLOW, V_LIT, stream_for
from repro.engine.stats import Counter, Distribution
from repro.errors import ProgramError, SimulationError, StarvationError
from repro.interconnect.network import Network
from repro.memory.cache import LineState
from repro.params import PrivateDataMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import Machine


class BulkSCDriver(ProcessorDriver):
    """Chunked execution under BulkSC."""

    model_name = "BulkSC"

    #: Extra cycles charged when a squash restores the checkpoint
    #: (pipeline refill, like a branch mispredict).
    SQUASH_RESTORE_CYCLES = 17

    def __init__(self, proc: int, thread, machine: "Machine"):
        super().__init__(proc, thread, machine)
        self.coherence = machine.coherence
        self.memory = machine.memory
        self.sync = machine.sync
        self.history = machine.history
        self.address_map = machine.coherence.address_map
        self.address_space = machine.address_space
        self.bdm = machine.bdms[proc]
        self.bdms = machine.bdms
        self.dirbdms = machine.dirbdms
        self.arbiter = machine.arbiter
        self.commit_engine = machine.commit_engine
        self.injector = machine.fault_injector
        #: The machine's event stream (see :meth:`Machine.subscribe`).
        self.subscribers = machine.subscribers
        self.config = machine.config.bulksc
        self._hop = machine.config.network_hop_cycles
        self.policy = ChunkingPolicy(self.config)
        self.private_mode = self.config.private_data_mode
        self._chunk_counter = 0
        self._current: Optional[Chunk] = None
        self._commit_fifo: Deque[Chunk] = deque()
        self._arbitrating: Optional[Chunk] = None
        self._holding_reservation = False
        self._barrier_after_chunk: Optional[Chunk] = None
        self._pending_barrier: Optional[Barrier] = None
        self._io_after_chunk: Optional[Chunk] = None
        self._pending_io: Optional[Io] = None
        self._draining_for_finish = False
        # Why execution is blocked: 'slot' (chunk slots all busy or
        # set overflow), 'spin' (lock/flag held; squash will wake us),
        # 'barrier-gate' (waiting for own commits before arriving), or
        # 'barrier-release' (arrived, waiting for the others).
        self._block_reason: Optional[str] = None
        # Aggregate statistics for Table 3.
        self.squashed_instructions = 0
        self.committed_instructions = 0
        self.chunk_squashes = 0
        self.chunk_commits = 0
        # The per-commit stat handles, made on the first commit (an unused
        # stat must stay out of the snapshot): the commit counter and the
        # read, write and private-write set distributions.
        self._commit_stats: Optional[
            Tuple[Counter, Distribution, Distribution, Distribution]
        ] = None
        # Starvation watchdog (armed only under fault injection).
        self._starvation_strikes = 0
        self._last_progress_commits = 0
        # The op-stream run loop's per-driver state (see _run_until).
        self._stream = stream_for(thread.program, self.address_map.line_shift)
        self._l1 = machine.coherence.l1s[proc]
        coherence = machine.coherence
        self._peek_home = (
            coherence.directories[0].peek
            if len(coherence.directories) == 1
            else lambda line: coherence.home_directory(line).peek(line)
        )
        # Bloom signatures take packed masks; exact ones go through
        # insert/member.
        self._masked = not self.config.signature.exact
        # line -> packed Bloom insert mask for this machine's geometry.
        self._mask_memo: dict = {}
        # line -> statically private to this processor (Section 5.1).
        self._private_lines: dict = {}
        # Hot-line memos: line -> resident CacheLine.  An entry asserts
        # the line is L1-resident with its fetch fast-path guards held
        # and its signature work for the current chunk settled: in R
        # (rd) or classified into W or a static Wpriv (wr), so a repeat
        # access skips all of that work.  Every action that could falsify
        # an entry drops the memos: the run loop after a call-out that may
        # switch chunks (which resets signatures), a line leaving the L1
        # (an eviction by a fill or an invalidation, counted by
        # ``departures``; see _refill), and remote commits through
        # on_incoming_commit; a squash always ends the current chunk.
        # Read-disable windows are re-checked per access instead.
        self._rd_ok: dict = {}
        self._wr_ok: dict = {}
        # line -> (CacheLine, mask): dynamically-private repeats — the
        # store classification is a settled no-op (Wpriv holds the line)
        # as long as the line stays dirty and outside W, which the loop
        # re-checks per store.
        self._pv_ok: dict = {}
        self._departures_seen = 0

    # ==================================================================
    # Starvation watchdog (resilience, fault injection only)
    # ==================================================================
    def start(self) -> None:
        super().start()
        resil = self.config.resilience
        if (
            self.injector.active
            and resil.starvation_watchdog_cycles > 0
        ):
            self.sim.after(
                resil.starvation_watchdog_cycles,
                self._starvation_check,
                label=f"proc{self.proc}.starvation_watchdog",
            )

    def _starvation_check(self) -> None:
        """Escalate a commit-starved processor to pre-arbitration.

        Under fault injection a processor can be denied indefinitely —
        e.g. a storm keeps squashing it, or duplicated W signatures clog
        the arbiter list.  Instead of livelocking until ``max_events``,
        the watchdog reserves the arbiter (the paper's §3.3 forward-
        progress mechanism) and, if even that fails to produce a commit
        for ``starvation_strikes_before_error`` consecutive windows,
        raises a diagnosable :class:`StarvationError`.
        """
        if self.state is DriverState.FINISHED:
            return  # stop rearming; let the queue drain
        resil = self.config.resilience
        has_commit_work = (
            self._arbitrating is not None
            or bool(self._commit_fifo)
            or (self._current is not None and not self._current.is_empty)
        )
        if self.chunk_commits > self._last_progress_commits or not has_commit_work:
            # Progress (or legitimately idle: barrier/spin with nothing to
            # commit — the peers' commit watchdogs cover lost messages).
            self._last_progress_commits = self.chunk_commits
            self._starvation_strikes = 0
        else:
            self._starvation_strikes += 1
            self.stats.bump(f"proc{self.proc}.starvation_strikes")
            if not self._holding_reservation:
                self.stats.bump(f"proc{self.proc}.starvation_escalations")
                self._prearbitrate()
            if self._starvation_strikes >= resil.starvation_strikes_before_error:
                raise StarvationError(
                    f"proc {self.proc} made no commit progress for "
                    f"{self._starvation_strikes} watchdog windows "
                    f"({resil.starvation_watchdog_cycles} cycles each) despite "
                    f"pre-arbitration; injected faults: {self.injector.summary()}",
                    fault_trace=self.injector.trace,
                )
        self.sim.after(
            resil.starvation_watchdog_cycles,
            self._starvation_check,
            label=f"proc{self.proc}.starvation_watchdog",
        )

    def force_spurious_squash(self, now: float) -> bool:
        """Fault injection: squash all active chunks as if aliasing hit.

        Returns True when something was actually squashed.  Safe at any
        point: a processor with no active chunks (e.g. parked at a
        barrier with everything committed) is left untouched.
        """
        chain = [c for c in self.bdm.active_chunks() if c.is_active]
        if not chain:
            return False
        self.stats.bump(f"proc{self.proc}.spurious_squashes")
        self.squash_from(min(chain, key=lambda c: c.chunk_id), now)
        return True

    def diagnostic_line(self) -> str:
        line = super().diagnostic_line()
        if self._block_reason:
            line += f" ({self._block_reason})"
        return line + (
            f" commits={self.chunk_commits} squashes={self.chunk_squashes}"
            f" fifo={len(self._commit_fifo)}"
            f" arbitrating={self._arbitrating is not None}"
        )

    # ==================================================================
    # Chunk lifecycle
    # ==================================================================
    def _active_count(self) -> int:
        return sum(1 for c in self.bdm.active_chunks() if not c.is_done)

    def _ensure_chunk(self) -> bool:
        """Make sure an executing chunk exists; False if no slot is free."""
        if self._current is not None:
            return True
        if self._active_count() >= self.config.chunks_per_processor:
            self.stats.bump(f"proc{self.proc}.chunk_slot_stalls")
            return False
        self._chunk_counter += 1
        r_sig, w_sig, wpriv_sig = self.bdm.new_signature_triple()
        chunk = Chunk(
            chunk_id=self._chunk_counter,
            proc=self.proc,
            checkpoint=Checkpoint.take(self.thread),
            r_sig=r_sig,
            w_sig=w_sig,
            wpriv_sig=wpriv_sig,
            target_instructions=self.policy.target_instructions,
        )
        self.bdm.register_chunk(chunk)
        self._current = chunk
        if self.policy.wants_prearbitration and not self._holding_reservation:
            self._prearbitrate()
        for subscriber in self.subscribers:
            subscriber("chunk.start", self.proc, chunk)
        return True

    def _prearbitrate(self) -> None:
        """Forward-progress fallback: reserve the arbiter before executing."""
        if self.arbiter.reserve(self.proc):
            self._holding_reservation = True
            self.policy.prearbitrations += 1
            self.stats.bump(f"proc{self.proc}.prearbitrations")
            # Ask-and-wait round trip before execution may proceed.
            self.coherence.network.control(
                Network.proc(self.proc), Network.arbiter(0)
            )
            self.window.stall_until(
                self.window.now + self.config.commit_arbitration_latency
            )

    def _close_current(self, reason: str) -> None:
        """Complete the executing chunk and queue it for in-order commit."""
        chunk = self._current
        if chunk is None:
            return
        if chunk.is_empty:
            # Nothing happened; recycle the chunk rather than commit air.
            chunk.mark(ChunkState.COMMITTED)
            self.bdm.deregister_chunk(chunk)
            self._current = None
            return
        chunk.mark(ChunkState.COMPLETE)
        chunk.close_reason = reason
        self.stats.bump(f"proc{self.proc}.chunks_closed.{reason}")
        self._current = None
        self._commit_fifo.append(chunk)
        self._try_submit_head()
        for subscriber in self.subscribers:
            subscriber("chunk.close", self.proc, chunk, reason)

    def _try_submit_head(self) -> None:
        """Commit requests must be issued in strict per-processor order."""
        if self._arbitrating is not None:
            return
        while self._commit_fifo:
            chunk = self._commit_fifo.popleft()
            if chunk.state is ChunkState.SQUASHED:
                continue
            # Gate: every forward to successor R signatures must be logged
            # before arbitration begins (Section 4.1.2).
            self.bdm.drain_forward_log()
            self._arbitrating = chunk
            self.commit_engine.submit(
                chunk,
                at_time=max(self.window.now, self.sim.now),
                on_committed=self._on_chunk_committed,
                on_granted=self._on_chunk_granted,
            )
            return

    def _on_chunk_granted(self, chunk: Chunk) -> None:
        for subscriber in self.subscribers:
            subscriber("chunk.grant", self.proc, chunk)
        if self._arbitrating is chunk:
            self._arbitrating = None
        if self._holding_reservation:
            self.arbiter.clear_reservation(self.proc)
            self._holding_reservation = False
        if self.private_mode is PrivateDataMode.DYNAMIC:
            # Commit permission granted on W alone: the Private Buffer
            # entries and Wpriv die here — the writebacks were skipped.
            for line in chunk.private_buffer_lines:
                self.bdm.private_buffer.drop(line)
        self._try_submit_head()

    def _on_chunk_committed(self, chunk: Chunk) -> None:
        for subscriber in self.subscribers:
            subscriber("chunk.commit", self.proc, chunk)
        self.bdm.deregister_chunk(chunk)
        self.policy.note_commit()
        self.chunk_commits += 1
        self.committed_instructions += chunk.instructions
        handles = self._commit_stats
        if handles is None:
            stats, prefix = self.stats, f"proc{self.proc}"
            handles = self._commit_stats = (
                stats.counter(f"{prefix}.chunk_commits"),
                stats.distribution(f"{prefix}.read_set"),
                stats.distribution(f"{prefix}.write_set"),
                stats.distribution(f"{prefix}.priv_write_set"),
            )
        commits, read_set, write_set, priv_write_set = handles
        commits.value += 1.0
        read_set.sample(len(chunk.true_read_lines))
        write_set.sample(len(chunk.true_written_lines))
        priv_write_set.sample(len(chunk.true_private_lines))
        if self._barrier_after_chunk is chunk:
            self._barrier_after_chunk = None
            self._arrive_barrier()
            return
        if self._io_after_chunk is chunk:
            self._io_after_chunk = None
            self._perform_pending_io()
            self.wake_advance(self.sim.now)
            return
        if self.state is DriverState.BLOCKED and self._block_reason == "slot":
            # Waiting on a chunk slot or set-overflow; a slot just freed.
            self.wake_retry(self.sim.now)
        if (
            self._draining_for_finish
            and self.thread.finished
            and self._active_count() == 0
        ):
            self._draining_for_finish = False
            self.complete_finish()

    # ==================================================================
    # Squash and replay
    # ==================================================================
    def on_incoming_commit(
        self, committing_chunk: Chunk, now: float, on_invalidation_list: bool = True
    ) -> None:
        """A remote chunk's W signature arrived: disambiguate + invalidate.

        ``on_invalidation_list`` is False when the directory's sharer
        filter would not have forwarded W here; disambiguation still runs
        (correctness) and a miss is counted (it should never fire —
        validating the paper's claim that the directory filter is safe).
        """
        # Remote commits invalidate L1 lines / directory ownership that
        # the run loop's hot-line memos rely on.
        self._forget_lines()
        w_commit = committing_chunk.w_sig
        colliding = self.bdm.disambiguate(w_commit)
        if not colliding and not on_invalidation_list:
            # Ground truth said conflict but the signatures disagree —
            # impossible for a superset encoding; squash conservatively.
            colliding = [c for c in self.bdm.active_chunks() if c.is_active]
        if colliding:
            oldest = min(colliding, key=lambda c: c.chunk_id)
            self.squash_from(oldest, now)
        if on_invalidation_list:
            # Bulk-invalidate the stale copies named by W, squash or not.
            __, unnecessary = self.bdm.bulk_invalidate(
                w_commit, committing_chunk.true_written_lines
            )
            self.stats.bump(
                f"proc{self.proc}.extra_cache_invalidations", unnecessary
            )

    def squash_from(self, oldest: Chunk, now: float) -> None:
        """Squash ``oldest`` and every younger local chunk, then replay."""
        chain = [
            c
            for c in self.bdm.active_chunks()
            if c.is_active and c.chunk_id >= oldest.chunk_id
        ]
        if not chain:
            return
        for subscriber in self.subscribers:
            for chunk in chain:
                subscriber("chunk.squash", self.proc, chunk)
        chain.sort(key=lambda c: c.chunk_id)
        for chunk in reversed(chain):
            self.squashed_instructions += chunk.instructions
            self.chunk_squashes += 1
            self.stats.bump(f"proc{self.proc}.chunk_squashes")
            self.stats.bump(
                f"proc{self.proc}.squashed_instructions", chunk.instructions
            )
            # Discard speculatively-written lines from the cache.
            self.bdm.bulk_invalidate(chunk.w_sig, chunk.true_written_lines)
            # Private Buffer pre-images flow back into the cache (the
            # committed image was never disturbed, so values are intact).
            for line in chunk.private_buffer_lines:
                self.bdm.private_buffer.drop(line)
            chunk.squash_count += 1
            chunk.mark(ChunkState.SQUASHED)
            self.bdm.deregister_chunk(chunk)
            if chunk is self._current:
                self._current = None
            if chunk is self._arbitrating:
                self._arbitrating = None
            if chunk is self._barrier_after_chunk:
                self._barrier_after_chunk = None
        self._commit_fifo = deque(
            c for c in self._commit_fifo if c.state is not ChunkState.SQUASHED
        )
        self.policy.note_squash()
        # Restore the oldest squashed chunk's checkpoint and replay.  A
        # stale barrier or I/O op will be re-executed, so forget it.
        self._pending_barrier = None
        self._pending_io = None
        chain[0].checkpoint.restore(self.thread)
        self.window.stall_until(max(now, self.window.now) + self.SQUASH_RESTORE_CYCLES)
        self._draining_for_finish = False
        if self.state is DriverState.BLOCKED:
            if self._block_reason == "barrier-release":
                raise SimulationError(
                    f"proc {self.proc}: squash while waiting for barrier "
                    "release — arrival gate violated"
                )
            self.wake_retry(self.sim.now)
        self._try_submit_head()

    # ==================================================================
    # Op execution
    # ==================================================================
    def _block(self, reason: str) -> bool:
        """Record why execution is blocking (for wake routing).

        Blocking on *other processors' progress* ('spin' on a held lock,
        'barrier-release') while holding a pre-arbitration reservation
        would livelock the machine: the lock holder / barrier peers need
        the commit grants this processor is blocking.  Release the
        reservation in those cases; the next squash streak re-acquires it
        if still needed.
        """
        self._block_reason = reason
        if reason in ("spin", "barrier-release") and self._holding_reservation:
            self.arbiter.clear_reservation(self.proc)
            self._holding_reservation = False
            self.stats.bump(f"proc{self.proc}.reservation_yields")
        return False

    def _run_until(self, batch_end: float) -> None:
        """Run the op stream until the cursor passes ``batch_end``.

        One loop serves every BulkSC configuration, with each op kind
        implemented once.  Compute bursts, fences, memoized repeat
        accesses, a line's first L1 hit in the chunk and a plain miss run
        inline, with the hot thread/window/chunk counters held in locals
        and the L1 (``sets``, ``set_mask``, ``lru_clock``), memory
        ``words`` and the BDM's ``chunks`` read in place.  A plain miss
        (no read disable at the home directory, no remote dirty owner) is
        one :meth:`CoherenceController.fetch_for_chunk` call, retired with
        ``window.retire_memory``'s arithmetic.  The rest calls out,
        bracketed by :meth:`_spill` and :meth:`_refill`: chunk boundaries,
        intercepted misses (:meth:`bulk_fetch` plus
        ``window.retire_memory``), set overflow
        (:meth:`_check_overflow`), dirty-line store classification
        (:meth:`_classify_store`) and sync ops (:meth:`execute_op`).  Line
        memos survive a miss and a classification, which change no other
        line unless something left the L1 (its ``departures`` moved).
        Bloom signatures take memoized packed masks OR-ed into ``bits``;
        exact and mirror-tracking ones go through ``insert`` /
        ``member``.  Loads and stores go into the chunk's op log only
        while something reads it (see :meth:`_refill`).

        No simulator event fires inside a batch (commits and squashes are
        delayed events), so nothing else mutates the cached state.
        """
        stream = self._stream
        kinds, argv, linev = stream.kinds, stream.args, stream.lines
        regv, vspecv = stream.regs, stream.vspecs
        n = stream.length
        thread = self.thread
        registers = thread.registers
        window = self.window
        ring_times, ring_counts = window.ring_times, window.ring_counts
        iwindow = window.config.instruction_window
        per_instr = window.per_instruction
        l1_rt = window.l1_round_trip
        l1 = self._l1
        l1_sets, set_mask, assoc = l1.sets, l1.set_mask, l1.associativity
        l1_clock = l1.lru_clock
        mem_words = self.memory.words
        actives = self.bdm.chunks
        proc = self.proc
        peek_home = self._peek_home
        masks = self._mask_memo
        masked = self._masked
        static = self.private_mode is PrivateDataMode.STATIC
        rd_ok, wr_ok, pv_ok = self._rd_ok, self._wr_ok, self._pv_ok
        spill, refill = self._spill, self._refill
        bulk_fetch, pinned = self.bulk_fetch, self.bdm.pinned
        fetch = self.coherence.fetch_for_chunk
        retire_memory, mshr_admit = window.retire_memory, window.mshr.admit
        k_slow, k_compute, k_load, k_fence = K_SLOW, K_COMPUTE, K_LOAD, K_FENCE
        committed, squashed = ChunkState.COMMITTED, ChunkState.SQUASHED
        modified = LineState.MODIFIED
        pc = thread.pc
        retired = thread.retired_instructions
        rm = None
        # Read-disable windows open and close only in commit events, so one
        # snapshot serves the whole batch (None: no window open anywhere).
        busy = [dirbdm.any_read_disabled() for dirbdm in self.dirbdms]
        rd_busy = busy if any(busy) else None
        (cursor, win_instr, chunk, chunk_instr, target, chunk_wb,
         chunk_log) = refill(forget=False)
        while True:
            if pc >= n:
                spill(pc, retired, cursor, win_instr, chunk_instr)
                self._finish()
                return
            if chunk is None or chunk_instr >= target:
                spill(pc, retired, cursor, win_instr, chunk_instr)
                if chunk is not None:
                    self._close_current("size")
                if not self._ensure_chunk():
                    self._block("slot")  # all chunk slots busy committing
                    self.state = DriverState.BLOCKED
                    return
                (cursor, win_instr, chunk, chunk_instr, target, chunk_wb,
                 chunk_log) = refill()
            kind = kinds[pc]
            if kind == k_compute:
                count = argv[pc]
                cursor += count * per_instr
                ring_times.append(cursor)
                ring_counts.append(count)
                win_instr += count
                while ring_counts and win_instr - ring_counts[0] >= iwindow:
                    ring_times.popleft()
                    win_instr -= ring_counts.popleft()
                chunk_instr += count
                retired += count
                pc += 1
                if cursor >= batch_end:
                    break
                continue
            if kind == k_fence:
                # BulkSC needs no fences: SC comes from chunk serialization.
                chunk_instr += 1
                retired += 1
                pc += 1
                if cursor >= batch_end:
                    break
                continue
            if kind == k_slow:
                spill(pc, retired, cursor, win_instr, chunk_instr)
                self._block_reason = None
                if not self.execute_op(thread.program[pc]):
                    self.state = DriverState.BLOCKED
                    return
                thread.advance()
                pc = thread.pc
                retired = thread.retired_instructions
                (cursor, win_instr, chunk, chunk_instr, target, chunk_wb,
                 chunk_log) = refill()
                if cursor >= batch_end:
                    break
                continue
            # ---- LOAD / STORE (a release is a store of 0) ----
            addr = argv[pc]
            line = linev[pc]
            is_load = kind == k_load
            # A memo entry: the line is resident, its fetch guards held and
            # its signature work for this chunk is settled (see __init__).
            cl = (rd_ok if is_load else wr_ok).get(line)
            if cl is None and not is_load:
                entry = pv_ok.get(line)
                if entry is not None and entry[0].state is modified and not (
                    (chunk.w_sig.bits & entry[1]) == entry[1]
                    if masked
                    else chunk.w_sig.member(line)
                ):
                    cl = entry[0]  # still dirty and outside W: Wpriv holds it
            disabled = rd_busy is not None and rd_busy[self.address_map.directory_of(line)]
            memo = cl is not None and not disabled
            if not memo:
                # First touch in this chunk: L1 probe and set-overflow guard.
                cset = l1_sets.get(line & set_mask)
                cl = cset.get(line) if cset is not None else None
                if cl is None and cset is not None and len(cset) >= assoc:
                    spill(pc, retired, cursor, win_instr, chunk_instr)
                    if not self._check_overflow(line):
                        self.state = DriverState.BLOCKED
                        return
                    (cursor, win_instr, chunk, chunk_instr, target, chunk_wb,
                     chunk_log) = refill()
                    cl = l1.probe(line)
                priv = static and self._is_static_private(line, addr)
                if masked:
                    rm = masks.get(line)
                    if rm is None:
                        rm = masks[line] = chunk.r_sig.mask_of(line)
                if is_load and not priv:
                    if masked:
                        chunk.r_sig.bits |= rm
                    else:
                        chunk.r_sig.insert(line)
                    chunk.true_read_lines.add(line)
            if is_load:
                # Forward from the youngest live chunk's write buffer, else memory.
                value = chunk_wb.get(addr)
                if value is None and len(actives) > 1:
                    for c in reversed(actives):
                        if c.state is not committed and c.state is not squashed:
                            value = c.write_buffer.get(addr)
                            if value is not None:
                                # An older chunk's store (Section 4.1.2).
                                self.bdm.log_forward(line, chunk.chunk_id)
                                break
                if value is None:
                    value = mem_words.get(addr, 0)
            else:
                vspec = vspecv[pc]
                value = vspec[1]
                if vspec[0] != V_LIT:
                    value = registers.get(value)
                    if value is None:
                        spill(pc, retired, cursor, win_instr, chunk_instr)
                        resolve_operand(thread.program[pc].value, registers)  # raises
                        raise ProgramError(f"unresolvable store operand at pc {pc}")
                    value += vspec[2]  # 0 unless V_REGPLUS
                if not memo:
                    # Route into W or Wpriv (Section 5).
                    w_sig = chunk.w_sig
                    if priv:
                        chunk.wpriv_sig.insert(line)
                        chunk.true_private_lines.add(line)
                    elif cl is not None and cl.state is modified and not (
                        (w_sig.bits & rm) == rm if masked else w_sig.member(line)
                    ):
                        spill(pc, retired, cursor, win_instr, chunk_instr)
                        self._classify_store(chunk, addr, line)
                        # Write-backs keep lines resident: memos survive
                        # unless an L2 eviction back-invalidated one.
                        (cursor, win_instr, chunk, chunk_instr, target, chunk_wb,
                         chunk_log) = refill(forget=False)
                    else:
                        if masked:
                            w_sig.bits |= rm
                        else:
                            w_sig.insert(line)
                        chunk.true_written_lines.add(line)
            # Fetch: inline the interception-free access (no read disable
            # at the home directory, no remote dirty owner), hit or miss.
            plain = memo
            if not memo and not disabled:
                entry = peek_home(line)
                plain = (
                    entry is None
                    or not entry.dirty
                    or entry.owner is None
                    or entry.owner == proc
                )
            if plain:
                if cl is not None:
                    cl.lru_stamp = next(l1_clock)
                    latency = l1_rt
                else:
                    latency = fetch(proc, line, pinned)
                # retire_memory's arithmetic, decode_time in its O(1)
                # oldest-entry form: loads wait for their data (fetched
                # from decode), stores retire wait-free, misses take an
                # MSHR entry.
                start = 0.0
                if win_instr >= iwindow and (is_load or latency > l1_rt):
                    start = (
                        ring_times[0]
                        - (iwindow - (win_instr - ring_counts[0])) * per_instr
                    )
                    if start < 0.0:
                        start = 0.0
                if latency > l1_rt:
                    start = mshr_admit(line, latency, start)
                cursor += per_instr
                if is_load and start + latency > cursor:
                    cursor = start + latency
                ring_times.append(cursor)
                ring_counts.append(1)
                win_instr += 1
                while ring_counts and win_instr - ring_counts[0] >= iwindow:
                    ring_times.popleft()
                    win_instr -= ring_counts.popleft()
                if cl is None:
                    # A fill changes no other line unless its insert evicted.
                    if l1.departures != self._departures_seen:
                        self._departures_seen = l1.departures
                        self._forget_lines()
                elif not memo:
                    if is_load:
                        rd_ok[line] = cl
                    elif priv or line in chunk.true_written_lines:
                        wr_ok[line] = cl
                    elif cl.state is modified:
                        # Still dirty after classification: _classify_store
                        # parked it in Wpriv (dynamic mode).
                        pv_ok[line] = (cl, rm)
            else:
                spill(pc, retired, cursor, win_instr, chunk_instr)
                latency = bulk_fetch(line, pinned)
                retire_memory(latency, blocking=is_load, line_addr=line)
                (cursor, win_instr, chunk, chunk_instr, target, chunk_wb,
                 chunk_log) = refill(forget=False)
            if is_load:
                registers[regv[pc]] = value
            else:
                chunk_wb[addr] = value
            if chunk_log is not None:
                chunk_log((not is_load, addr, value, pc))
            chunk_instr += 1
            retired += 1
            pc += 1
            if cursor >= batch_end:
                break
        spill(pc, retired, cursor, win_instr, chunk_instr)

    def _spill(self, pc, retired, cursor, win_instr, chunk_instr):
        """Write the run loop's cached state back before a call-out or exit."""
        thread = self.thread
        thread.pc = pc
        thread.retired_instructions = retired
        thread.finished = pc >= self._stream.length
        window = self.window
        window.retire_cursor = cursor
        window.ring_instructions = win_instr
        if self._current is not None:
            self._current.instructions = chunk_instr

    def _refill(self, forget: bool = True) -> tuple:
        """Re-read the run loop's cached state (see :meth:`_run_until`).

        ``forget`` drops the line memos, for call-outs that may switch
        chunks.  Otherwise they go only if a line left the L1 since the
        last refill (the L1's ``departures`` moved): a fill's eviction, an
        inclusive L2 eviction's back-invalidation or a directory
        displacement removes lines without a squash.

        The op-log appender is ``None`` unless history recording is on or
        a subscriber is attached, the log's only readers.  Subscribers
        must attach before the machine runs, or chunks already executing
        lose their earlier ops.
        """
        l1 = self._l1
        if forget or l1.departures != self._departures_seen:
            self._forget_lines()
        self._departures_seen = l1.departures
        window = self.window
        chunk = self._current
        keep_log = chunk is not None and (
            self.history.enabled or bool(self.subscribers)
        )
        return (
            window.retire_cursor,
            window.ring_instructions,
            chunk,
            0 if chunk is None else chunk.instructions,
            self.policy.target_instructions,
            None if chunk is None else chunk.write_buffer,
            chunk.ops.append if keep_log else None,
        )

    def _forget_lines(self) -> None:
        """Drop the run loop's line memos (see ``__init__``)."""
        self._rd_ok.clear()
        self._wr_ok.clear()
        self._pv_ok.clear()

    # ------------------------------------------------------------------
    def _check_overflow(self, line: int) -> bool:
        """Close the chunk if fetching ``line`` would overflow a set.

        Returns False when execution must block (pinned lines from
        still-committing chunks occupy the whole set).
        """
        if not self.coherence.would_overflow_l1(self.proc, line, self.bdm.pinned):
            return True
        self._close_current("overflow")
        self.stats.bump(f"proc{self.proc}.overflow_closes")
        if not self._ensure_chunk():
            self._block("slot")
            return False
        if self.coherence.would_overflow_l1(self.proc, line, self.bdm.pinned):
            # Still pinned by committing chunks; wait for a commit.
            self._block("slot")
            return False
        return True

    def _is_static_private(self, line: int, word_addr: int) -> bool:
        """Section 5.1's private page attribute, memoized per line.

        Regions are line-aligned, so every word of a line shares one
        answer and the region scan runs once per line.
        """
        private = self._private_lines.get(line)
        if private is None:
            private = self._private_lines[line] = (
                self.private_mode is PrivateDataMode.STATIC
                and self.address_space.is_statically_private(word_addr, self.proc)
            )
        return private

    def _classify_store(self, chunk: Chunk, word_addr: int, line: int) -> None:
        """Route a store's address into W or Wpriv (Section 5)."""
        if self._is_static_private(line, word_addr):
            chunk.wpriv_sig.insert(line)
            chunk.true_private_lines.add(line)
            return
        l1_line = self._l1.probe(line)
        dirty_nonspec = (
            l1_line is not None and l1_line.dirty and not chunk.w_sig.member(line)
        )
        if self.private_mode is PrivateDataMode.DYNAMIC and dirty_nonspec:
            if not chunk.wpriv_sig.member(line):
                # First update in this chunk: park the pre-image.
                pre_image = {
                    w: self.memory.peek(w) for w in self.address_map.words_of_line(line)
                }
                evicted = self.bdm.private_buffer.insert(line, pre_image)
                if evicted is not None:
                    evicted_line, __ = evicted
                    self.coherence.writeback_line(self.proc, evicted_line)
                    chunk.w_sig.insert(evicted_line)
                    chunk.true_written_lines.add(evicted_line)
                    self.stats.bump(f"proc{self.proc}.private_buffer_overflows")
                chunk.private_buffer_lines.add(line)
            chunk.wpriv_sig.insert(line)
            chunk.true_private_lines.add(line)
            return
        if dirty_nonspec:
            # BSCbase: the committed version must reach memory before the
            # line is speculatively overwritten (Section 5.2 prelude).
            self.coherence.writeback_line(self.proc, line)
            self.stats.bump(f"proc{self.proc}.first_write_writebacks")
        chunk.w_sig.insert(line)
        chunk.true_written_lines.add(line)

    # ------------------------------------------------------------------
    # Demand fetch (Sections 4.3.2, 5.2)
    # ------------------------------------------------------------------
    def bulk_fetch(self, line_addr: int, pinned: Callable[[int], bool]) -> float:
        """A chunk's demand fetch: read request + BulkSC intercepts.

        Two interceptions happen before the plain coherence fill:

        * **Read-disable bounce** (Section 4.3.2): the home DirBDM
          membership-tests the line against every in-flight committed W;
          a hit bounces the read, which retries after the commit's
          acknowledgements — modeled as added latency.
        * **Wpriv intervention** (Section 5.2): if the dirty owner's BDM
          finds the line in a running chunk's Wpriv, the Private Buffer
          supplies the *old* version and the address is added back into
          that chunk's W signature.

        Returns the latency.  A miss that meets neither interception
        skips this method: the run loop calls
        :meth:`CoherenceController.fetch_for_chunk` itself.
        """
        coherence = self.coherence
        dir_index = self.address_map.directory_of(line_addr)
        bounced = self.dirbdms[dir_index].is_read_disabled(line_addr)
        self._maybe_wpriv_intervention(line_addr, coherence.directories[dir_index])
        latency = coherence.fetch_for_chunk(self.proc, line_addr, pinned, dir_index)
        if bounced:
            latency += 2 * self._hop + self.commit_engine.ACK_TURNAROUND_CYCLES
        return latency

    def _maybe_wpriv_intervention(
        self, line_addr: int, directory: DirectoryModule
    ) -> None:
        entry = directory.peek(line_addr)
        if (
            entry is None
            or not entry.dirty
            or entry.owner is None
            or entry.owner == self.proc
        ):
            return
        owner = entry.owner
        owner_bdm = self.bdms[owner]
        if owner_bdm.wpriv_member(line_addr) is None:
            return
        # The predicted-private pattern broke: provide the old copy from
        # the Private Buffer and "add back" the address to W (Section
        # 5.2).  Every in-flight chunk that routed this line into Wpriv
        # must move it to W — otherwise a later chunk could commit an
        # update to the line without the requester (which now holds the
        # line in its R signature) ever being disambiguated.
        image = owner_bdm.private_buffer.supply(line_addr)
        matched = False
        for chunk in owner_bdm.active_chunks():
            if not chunk.is_active or not chunk.wpriv_sig.member(line_addr):
                continue
            matched = True
            chunk.private_buffer_lines.discard(line_addr)
            chunk.w_sig.insert(line_addr)
            chunk.true_written_lines.add(line_addr)
            if chunk.state is ChunkState.ARBITRATING:
                self.commit_engine.reresolve_ranges(chunk)
        if not matched:
            return
        if image is not None:
            self.stats.bump(f"proc{owner}.data_from_private_buffer")
        # The old version reaches L2; the owner's cached copy is now a
        # speculative version protected by W (pinned, re-owned at commit).
        owner_line = self.coherence.l1s[owner].probe(line_addr)
        if owner_line is not None:
            owner_line.state = LineState.SHARED
        entry.clear_owner()
        entry.sharers.add(owner)

    # ------------------------------------------------------------------
    # Synchronization inside chunks (Section 3.3)
    # ------------------------------------------------------------------
    def _sync_read(self, addr: int, instructions: int):
        """The read half of an acquire or flag spin: ``(chunk, line, value)``.

        None when a set overflow blocks execution.
        """
        line = self.address_map.line_of(addr)
        if not self._check_overflow(line):
            return None
        chunk = self._current
        assert chunk is not None
        chunk.r_sig.insert(line)
        chunk.true_read_lines.add(line)
        # Forward from the youngest live chunk's write buffer, else memory.
        for source in reversed(self.bdm.active_chunks()):
            value = None if source.is_done else source.local_value(addr)
            if value is not None:
                break
        else:
            value = self.memory.read(addr)
        latency = self.bulk_fetch(line, self.bdm.pinned)
        self.window.retire_memory(
            latency, blocking=True, instructions=instructions, line_addr=line
        )
        return chunk, line, value

    def _handle_acquire(self, op: LockAcquire) -> bool:
        read = self._sync_read(op.addr, instructions=2)
        if read is None:
            return False
        chunk, line, value = read
        if value != 0:
            # Lock observed held.  The release (a remote chunk's commit to
            # this line, which is in our R signature) will squash and
            # replay us — the BulkSC spin mechanism.
            self.stats.bump(f"proc{self.proc}.lock_spin_blocks")
            return self._block("spin")
        self._classify_store(chunk, op.addr, line)
        chunk.note_load(op.addr, 0, self.thread.pc)
        chunk.note_store(op.addr, 1, self.thread.pc)
        chunk.instructions += 2
        return True

    def _handle_spin(self, op: SpinUntil) -> bool:
        read = self._sync_read(op.addr, instructions=1)
        if read is None:
            return False
        chunk, __, value = read
        if value != op.value:
            # Wait for the writer's commit to squash us (flag is in R).
            self.stats.bump(f"proc{self.proc}.flag_spin_blocks")
            return self._block("spin")
        chunk.note_load(op.addr, value, self.thread.pc)
        chunk.instructions += 1
        return True

    def _handle_io(self, op: Io) -> bool:
        """I/O cannot be speculative (Section 4.1.3).

        The processor stalls until every in-flight chunk has committed
        (so nothing performed can ever be rolled back), performs the
        operation non-speculatively, and only then starts a new chunk.
        """
        self._pending_io = op
        self._close_current("io")
        pending = [c for c in self.bdm.active_chunks() if not c.is_done]
        if pending:
            self._io_after_chunk = max(pending, key=lambda c: c.chunk_id)
            return self._block("io-gate")
        self._perform_pending_io()
        return True

    def _perform_pending_io(self) -> None:
        op = self._pending_io
        if op is None:
            raise SimulationError(f"proc {self.proc}: I/O completion without op")
        self._pending_io = None
        value = resolve_operand(op.value, self.thread.registers)
        self.window.stall_until(max(self.window.now, self.sim.now) + Io.LATENCY)
        self._perform_io(op.device, value)

    def _handle_barrier(self, op: Barrier) -> bool:
        """Close the chunk, drain all commits, then arrive.

        Arrival must wait until *every* in-flight chunk has committed:
        an uncommitted chunk could still be squashed, which would replay
        the barrier op and arrive twice.  Chunks commit in order, so
        gating on the youngest pending chunk suffices.
        """
        self._pending_barrier = op
        self._close_current("barrier")
        pending = [c for c in self.bdm.active_chunks() if not c.is_done]
        if pending:
            self._barrier_after_chunk = max(pending, key=lambda c: c.chunk_id)
            return self._block("barrier-gate")  # arrive when it commits
        self._arrive_barrier()
        return self._block("barrier-release")

    def _arrive_barrier(self) -> None:
        op = self._pending_barrier
        if op is None:
            raise SimulationError(f"proc {self.proc}: barrier arrival without op")
        self._pending_barrier = None
        self._block_reason = "barrier-release"
        self.stats.bump(f"proc{self.proc}.barrier_arrivals")
        self.sync.arrive_barrier(
            op.barrier_id, op.participants, self.proc, self._barrier_released
        )

    def _barrier_released(self) -> None:
        self.wake_advance(self.sim.now)

    # ==================================================================
    # Program end: drain in-flight chunks
    # ==================================================================
    def on_program_end(self) -> bool:
        self._close_current("end")
        if self._active_count() == 0:
            return True
        self._draining_for_finish = True
        self._block_reason = "finish"
        return False

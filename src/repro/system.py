"""Machine assembly: configuration + workload -> runnable simulation.

:class:`Machine` wires the substrates together according to the
configured consistency model:

* every model gets the event kernel, coherence controller (caches +
  directories + network), global memory image, sync manager, and history;
* BulkSC additionally gets per-processor BDMs, DirBDMs on each directory,
  the arbiter front end (one address range when central, one per
  directory when distributed), and the commit engine.

:func:`run_workload` is the one-call entry point used by the examples,
tests, and benchmark harness.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.coherence.dirbdm import DirBDM
from repro.coherence.protocol import CoherenceController
from repro.consistency.rc import RCDriver
from repro.consistency.sc import SCDriver
from repro.consistency.scpp import SCPPDriver
from repro.consistency.tso import TSODriver
from repro.core.bdm import BDM
from repro.core.chunk import Chunk
from repro.core.commit import CommitEngine
from repro.core.distributed_arbiter import DistributedArbiter
from repro.core.driver import BulkSCDriver
from repro.core.recovery import ArbiterRecoveryManager
from repro.cpu.driver import DriverState, ProcessorDriver
from repro.cpu.sync import SyncManager
from repro.cpu.thread import ThreadContext, ThreadProgram
from repro.engine.simulator import Simulator
from repro.errors import ConfigError, DeadlockError
from repro.faults.injector import FaultInjector
from repro.interconnect.network import Network
from repro.signatures.bloom import INDEX_CACHE
from repro.interconnect.traffic import TrafficClass
from repro.memory.address import AddressSpace
from repro.memory.main_memory import MainMemory
from repro.params import (
    ArbiterTopology,
    ConsistencyModelKind,
    SystemConfig,
)
from repro.signatures.compression import compressed_size_bytes
from repro.signatures.factory import SignatureFactory
from repro.verify.history import ExecutionHistory


@dataclass
class RunResult:
    """Everything a simulation produces."""

    config: SystemConfig
    cycles: float
    per_proc_finish: List[float]
    total_instructions: int
    registers: Dict[int, Dict[str, int]]
    stats: Dict[str, float]
    traffic_bytes: Dict[str, int]
    history: ExecutionHistory
    memory: MainMemory
    machine: "Machine" = field(repr=False, default=None)

    @property
    def model_name(self) -> str:
        return self.config.model.value

    def stat(self, name: str, default: float = 0.0) -> float:
        return self.stats.get(name, default)

    def slim(self) -> "RunResult":
        """A copy without the live machine, safe to pickle across processes.

        The machine's event heap holds closures, so a full result cannot
        cross a pool boundary; everything else — config, stats, history,
        memory image, registers — is plain data and travels intact.
        """
        return replace(self, machine=None)


def _count_spec_read_displacement(
    bdms: List[BDM], stats, proc: int, line_addr: int
) -> None:
    """Table 3 bookkeeping: displacement of speculatively-read lines.

    The L1 eviction observer of a BulkSC machine.
    """
    for chunk in bdms[proc].active_chunks():
        if chunk.is_active and line_addr in chunk.true_read_lines:
            stats.bump(f"proc{proc}.spec_read_displacements")
            return


class Machine:
    """One simulated multiprocessor running one workload.

    The machine owns its components, and they keep the collaborators
    they use rather than the machine.  The few edges that must point back
    up (a driver's or the commit engine's reach into the other drivers,
    the recovery manager, the directory cache's displacement hook) are
    weak, so a finished machine, once dropped, is freed by reference
    counting and leaves nothing for the cyclic collector.
    """

    def __init__(
        self,
        config: SystemConfig,
        programs: Sequence[ThreadProgram],
        address_space: AddressSpace,
        record_history: bool = True,
        fault_injector: Optional[FaultInjector] = None,
    ):
        config.validate()
        if len(programs) > config.num_processors:
            raise ConfigError(
                f"{len(programs)} programs for {config.num_processors} processors"
            )
        self.config = config
        self.sim = Simulator(seed=config.seed)
        self.stats = self.sim.stats
        #: The chunk-lifecycle event stream (see :meth:`subscribe`).
        self.subscribers: List[Callable[..., None]] = []
        # Fault injection: an inactive injector is a pure passthrough, so
        # every machine carries one and hardened paths need no None checks.
        self.fault_injector = (
            fault_injector if fault_injector is not None else FaultInjector()
        )
        self.fault_injector.bind(self.sim)
        self.fault_injector.subscribers = self.subscribers
        self.memory = MainMemory()
        use_dir_cache = (
            config.model is ConsistencyModelKind.BULKSC
            and config.bulksc.use_directory_cache
        )
        # The directory cache is owned by the machine: its displacement
        # hook calls back through a weak proxy.
        machine = weakref.proxy(self)
        self.coherence = CoherenceController(
            config,
            self.stats,
            use_directory_cache=use_dir_cache,
            directory_cache_sets=config.bulksc.directory_cache_sets,
            directory_cache_ways=config.bulksc.directory_cache_ways,
            on_directory_displace=(
                lambda entry: machine._on_directory_displacement(entry)
            )
            if use_dir_cache
            else None,
        )
        self.sync = SyncManager(self.sim)
        self.history = ExecutionHistory(enabled=record_history)
        self.address_space = address_space
        #: Non-speculative I/O operations, in global order:
        #: (time, proc, device, value).
        self.io_log: List[tuple] = []
        # Threads: unassigned processors idle on an empty program.
        self.threads: List[ThreadContext] = []
        for proc in range(config.num_processors):
            program = (
                programs[proc]
                if proc < len(programs)
                else ThreadProgram([], name=f"idle{proc}")
            )
            self.threads.append(ThreadContext(proc, program))
        # BulkSC machinery (None for baselines).
        self.bdms: List[BDM] = []
        self.dirbdms: List[DirBDM] = []
        self.arbiter = None
        self.commit_engine: Optional[CommitEngine] = None
        self.recovery: Optional[ArbiterRecoveryManager] = None
        if config.model is ConsistencyModelKind.BULKSC:
            self._build_bulksc()
        self.drivers: List[ProcessorDriver] = [
            self._build_driver(proc) for proc in range(config.num_processors)
        ]
        # (proc, hook) per driver that reacts to remote stores (SC's
        # prefetch rollback, SC++'s SHiQ), in driver order.
        self._remote_write_hooks = [
            (driver.proc, driver.on_remote_write)
            for driver in self.drivers
            if hasattr(driver, "on_remote_write")
        ]
        # Baseline of the process-global signature index cache, so run()
        # can record this machine's hit/miss/eviction deltas in its stats.
        self._index_cache_base = INDEX_CACHE.counters()

    # ------------------------------------------------------------------
    # Chunk-lifecycle event stream
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: Callable[..., None]) -> None:
        """Call ``subscriber(ev, p, *payload)`` on every protocol event.

        ``p`` is the processor the event is about (``None`` for
        directory, fault and recovery events); the payload is live
        simulator objects, valid only during the call:

        * ``chunk.start`` / ``chunk.grant`` / ``chunk.commit`` /
          ``chunk.squash``: ``(chunk,)``; ``chunk.close``:
          ``(chunk, reason)``;
        * ``arb.decide``: ``(decision,)``;
        * ``commit.serialize``: ``(txn,)``, before the memory image is
          published; ``inv.deliver``: ``(txn,)``, before the victim
          (``p``) disambiguates;
        * ``dir.expand``: ``(dir_index, chunk, lines, outcome)``;
        * ``fault``: ``(fault_record,)``;
        * ``arb.crash`` / ``arb.reconstruct`` / ``arb.recovered``:
          ``(recovery_event,)``.

        Publishers skip all work while nothing subscribes.  Subscribers
        observe only; they must not change simulator state.  Attach them
        before :meth:`run`: the BulkSC run loop keeps each chunk's op log
        (``txn.chunk.ops`` in ``commit.serialize``) only while history is
        on or someone subscribes, so a late subscriber would see chunks
        with their earlier ops missing.
        """
        self.subscribers.append(subscriber)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_bulksc(self) -> None:
        cfg = self.config
        factory = SignatureFactory(cfg.bulksc.signature)
        self.bdms = [
            BDM(
                proc,
                self.coherence.l1s[proc],
                factory,
                private_buffer_capacity=cfg.bulksc.private_buffer_lines,
                stats=self.stats,
            )
            for proc in range(cfg.num_processors)
        ]
        self.dirbdms = [
            DirBDM(directory, stats=self.stats)
            for directory in self.coherence.directories
        ]
        # The central topology is the one-range case of the front end.
        distributed = cfg.bulksc.arbiter_topology is ArbiterTopology.DISTRIBUTED
        self.arbiter = DistributedArbiter(
            cfg.bulksc, cfg.num_directories if distributed else 1, self.stats
        )
        self.commit_engine = CommitEngine(self)
        self.recovery = ArbiterRecoveryManager(self)
        self.fault_injector.crash_handler = self.recovery.crash
        self.fault_injector.crash_targets = self.recovery.crash_targets()
        self.coherence.eviction_observer = functools.partial(
            _count_spec_read_displacement, self.bdms, self.stats
        )

    def _build_driver(self, proc: int) -> ProcessorDriver:
        model = self.config.model
        thread = self.threads[proc]
        if model is ConsistencyModelKind.SC:
            return SCDriver(proc, thread, self)
        if model is ConsistencyModelKind.RC:
            return RCDriver(proc, thread, self)
        if model is ConsistencyModelKind.TSO:
            return TSODriver(proc, thread, self)
        if model is ConsistencyModelKind.SCPP:
            return SCPPDriver(proc, thread, self)
        if model is ConsistencyModelKind.BULKSC:
            return BulkSCDriver(proc, thread, self)
        raise ConfigError(f"unknown model {model}")

    # ------------------------------------------------------------------
    # Cross-component services
    # ------------------------------------------------------------------
    def broadcast_write(self, writer_proc: int, line_addr: int, time: float) -> None:
        """A store became visible; let other drivers react (SHiQ, prefetch)."""
        for proc, hook in self._remote_write_hooks:
            if proc != writer_proc:
                hook(line_addr, time)

    def deliver_commit_to_proc(self, proc: int, chunk: Chunk, now: float) -> None:
        """Forward a committing chunk's W to one processor's BDM."""
        driver = self.drivers[proc]
        assert isinstance(driver, BulkSCDriver)
        driver.on_incoming_commit(chunk, now, on_invalidation_list=True)

    def inject_spurious_squash(self, proc: int, now: float) -> None:
        """Fault injection: squash ``proc``'s active chunks out of the blue."""
        driver = self.drivers[proc]
        if isinstance(driver, BulkSCDriver):
            driver.force_spurious_squash(now)

    def _driver_diagnostics(self) -> str:
        """Per-driver state for the livelock diagnostic dump."""
        lines = ["per-driver state:"]
        lines.extend(f"  {d.diagnostic_line()}" for d in self.drivers)
        if self.fault_injector.active:
            lines.append(f"injected faults: {self.fault_injector.summary()}")
        if self.recovery is not None:
            for arb in self.arbiter.arbiters:
                if arb.mode.value != "normal":
                    lines.append(
                        f"arbiter{arb.index}: mode={arb.mode.value} "
                        f"epoch={arb.epoch}"
                    )
        return "\n".join(lines)

    def check_missed_collision(self, proc: int, chunk: Chunk, now: float) -> None:
        """Safety net for the directory's invalidation-list filter.

        The Table 1 filter must never hide a *true* conflict: every read
        registers its processor as a sharer (clean L1 evictions are
        silent), so a processor with the committed line in any active R
        or W set is always on the invalidation list.  Ground truth is
        checked here; a hit means a protocol invariant broke, and the
        chunk is squashed anyway to keep the simulation SC.
        """
        driver = self.drivers[proc]
        assert isinstance(driver, BulkSCDriver)
        if not chunk.true_written_lines:
            return
        for local in self.bdms[proc].active_chunks():
            if not local.is_active:
                continue
            touched = local.true_read_lines | local.true_written_lines
            if touched & chunk.true_written_lines:
                self.stats.bump(f"proc{proc}.squashes_missed_by_dir_filter")
                driver.on_incoming_commit(chunk, now, on_invalidation_list=False)
                return

    def _on_directory_displacement(self, entry) -> None:
        """Directory-cache displacement protocol (Section 4.3.3).

        The displaced line's address is built into a one-line signature
        and sent to every sharer cache for bulk disambiguation; cached
        copies are invalidated (written back if dirty).  The work is
        deferred to an immediate event because a displacement can be
        triggered from inside the victim processor's own execution step.
        """
        line_addr = entry.line_addr
        sharers = set(entry.sharers)
        self.stats.bump("directory.displacements")
        # The disambiguation signature travels the fabric: charging the
        # round trip is both realistic and load-bearing — a zero-delay
        # displacement can chain displacement → squash → replay → refetch
        # → displacement at one timestamp and livelock the simulation.
        delay = 2.0 * self.config.network_hop_cycles
        self.sim.after(
            delay,
            lambda: self._process_directory_displacement(line_addr, sharers),
            label=f"dir.displace@{line_addr:#x}",
        )

    def _process_directory_displacement(self, line_addr: int, sharers) -> None:
        if not self.bdms:
            for proc in sharers:
                self.coherence.invalidate_in_cache(proc, line_addr)
            return
        factory = self.bdms[0].factory
        signature = factory.from_addresses([line_addr])
        now = self.sim.now
        dir_node = Network.directory(
            self.coherence.address_map.directory_of(line_addr)
        )
        for proc in sorted(sharers):
            self.coherence.network.send(
                dir_node,
                Network.proc(proc),
                TrafficClass.WR_SIG,
                compressed_size_bytes(signature),
            )
            driver = self.drivers[proc]
            if isinstance(driver, BulkSCDriver):
                bdm = self.bdms[proc]
                colliding = bdm.disambiguate(signature)
                if colliding:
                    self.stats.bump("directory.displacement_squashes")
                    oldest = min(colliding, key=lambda c: c.chunk_id)
                    driver.squash_from(oldest, now)
            # Invalidate (and write back if dirty) the cached copy.  A
            # dirty non-speculative copy safely reaches memory; the
            # committed image already holds its value.
            line = self.coherence.l1s[proc].probe(line_addr)
            if line is not None and line.dirty:
                self.coherence.writeback_line(proc, line_addr)
            self.coherence.invalidate_in_cache(proc, line_addr)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: Optional[float] = None,
        max_events: int = 50_000_000,
    ) -> RunResult:
        """Execute the workload to completion and collect results.

        Whatever is still queued when the run returns (events past a
        ``max_cycles`` cut, lazily-cancelled entries, spinners nothing
        will wake) can never fire; it is dropped, so neither the
        simulator nor the sync manager holds a driver and a dropped
        machine frees by reference count.
        """
        for driver in self.drivers:
            driver.start()
        try:
            self.sim.run(
                until=max_cycles,
                max_events=max_events,
                diagnostics=(self._driver_diagnostics,),
            )
        finally:
            self.sim.queue.clear()
            self.sync.clear()
        unfinished = [d.proc for d in self.drivers if d.state is not DriverState.FINISHED]
        if unfinished and max_cycles is None:
            details = {
                d.proc: (d.state.value, d.thread.pc, str(d.thread.current_op()))
                for d in self.drivers
                if d.state is not DriverState.FINISHED
            }
            raise DeadlockError(
                f"simulation drained with unfinished processors {unfinished}: {details}"
            )
        finish_times = [
            driver.finish_time if driver.finish_time is not None else self.sim.now
            for driver in self.drivers
        ]
        cycles = max(finish_times) if finish_times else self.sim.now
        # Signature index-cache activity since this machine was built.  The
        # cache is process-global, so the deltas depend on what else ran in
        # this process — volatile observability, never deterministic stats.
        for key, value in INDEX_CACHE.counters().items():
            delta = value - self._index_cache_base.get(key, 0)
            if delta:
                self.stats.bump_volatile(f"signature.index_cache.{key}", delta)
        return RunResult(
            config=self.config,
            cycles=cycles,
            per_proc_finish=finish_times,
            total_instructions=sum(t.retired_instructions for t in self.threads),
            registers={t.proc: dict(t.registers) for t in self.threads},
            stats=self.stats.snapshot(end_time=cycles),
            traffic_bytes=self.coherence.network.meter.breakdown(),
            history=self.history,
            memory=self.memory,
            machine=self,
        )


def run_workload(
    config: SystemConfig,
    programs: Sequence[ThreadProgram],
    address_space: AddressSpace,
    record_history: bool = True,
    max_cycles: Optional[float] = None,
    fault_injector: Optional[FaultInjector] = None,
    max_events: int = 50_000_000,
) -> RunResult:
    """Build a machine, run it to completion, and return the result."""
    machine = Machine(
        config, programs, address_space, record_history, fault_injector
    )
    return machine.run(max_cycles, max_events=max_events)

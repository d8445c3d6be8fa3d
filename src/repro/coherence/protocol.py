"""Demand-access coherence controller shared by all consistency models.

The controller owns the tag arrays (private L1s, shared inclusive L2),
MSHR files, directory modules, and the network meter.  It answers the two
questions every model asks:

* *How long does this access take?* — from cache state and Table 2
  latencies (L1 2, L2 13, memory 300 cycles, plus network hops for
  three-hop transfers).
* *What coherence actions does it trigger?* — sharer updates,
  invalidations, writebacks, with every message metered by traffic class.

Baselines use :meth:`read` / :meth:`write` (MESI semantics: writes obtain
exclusivity via invalidations); their run loop serves a plain L1 load hit
itself, through ``SetAssocCache.lookup``.  BulkSC uses
:meth:`fetch_for_chunk`, which is always a *read* request — even for a
write miss — because writes gain visibility only at chunk commit (paper
Section 4.3).

Every access returns plain numbers: its latency in cycles (and, for
:meth:`write`, the invalidation part of it).  Where the line came from is
counted in ``coherence.fill.<level>``, and a fill that found its L1 set
full of pinned lines in ``coherence.l1_set_overflows``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.coherence.directory import DirectoryEntry, DirectoryModule
from repro.coherence.directory_cache import DirectoryCache
from repro.engine.stats import Counter, StatsRegistry
from repro.interconnect.network import Network, NodeId
from repro.interconnect.traffic import TrafficClass
from repro.memory.address import AddressMap
from repro.memory.cache import LineState, SetAssocCache
from repro.memory.mshr import MshrFile
from repro.params import SystemConfig


class CoherenceController:
    """Caches + directory + network for one simulated machine."""

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[StatsRegistry] = None,
        use_directory_cache: bool = False,
        directory_cache_sets: int = 1024,
        directory_cache_ways: int = 16,
        on_directory_displace: Optional[Callable[[DirectoryEntry], None]] = None,
    ):
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry("coherence")
        mem = config.memory
        self.address_map = AddressMap(mem.words_per_line, config.num_directories)
        if config.network_topology == "mesh":
            from repro.interconnect.mesh import MeshNetwork

            self.network: Network = MeshNetwork(
                rows=config.mesh_rows,
                cols=config.mesh_cols,
                num_processors=config.num_processors,
                hop_cycles=config.network_hop_cycles,
                header_bytes=config.message_header_bytes,
            )
        else:
            self.network = Network(
                hop_cycles=config.network_hop_cycles,
                header_bytes=config.message_header_bytes,
            )
        self.l1s: List[SetAssocCache] = [
            SetAssocCache(mem.l1, name=f"l1.{p}") for p in range(config.num_processors)
        ]
        self.l1_mshrs: List[MshrFile] = [
            MshrFile(mem.l1.mshr_entries) for __ in range(config.num_processors)
        ]
        self.l2 = SetAssocCache(mem.l2, name="l2")
        if use_directory_cache:
            self.directories: List[DirectoryModule] = [
                DirectoryCache(
                    d,
                    config.num_processors,
                    num_sets=directory_cache_sets,
                    associativity=directory_cache_ways,
                    on_displace=on_directory_displace,
                )
                for d in range(config.num_directories)
            ]
        else:
            self.directories = [
                DirectoryModule(d, config.num_processors)
                for d in range(config.num_directories)
            ]
        self.line_bytes = mem.l1.line_bytes
        self._l1_rt = mem.l1.round_trip_cycles
        self._l2_rt = mem.l2.round_trip_cycles
        self._mem_rt = mem.memory_round_trip_cycles
        #: Optional hook fired as ``(proc, line_addr)`` on every L1
        #: eviction; BulkSC uses it to count speculative-read displacements.
        self.eviction_observer: Optional[Callable[[int, int], None]] = None
        # Per-level fill counters, created lazily so the stats snapshot
        # only ever contains levels that actually fired (same keys the
        # f-string bump produced, minus the per-miss formatting).
        self._fill_counters: Dict[str, Counter] = {}
        # The invalidation part of the last exclusive fill's latency,
        # which :meth:`write` returns beside the latency.
        self._inv_latency = 0.0

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def home_directory(self, line_addr: int) -> DirectoryModule:
        return self.directories[self.address_map.directory_of(line_addr)]

    def _proc_node(self, proc: int) -> NodeId:
        return Network.proc(proc)

    def _dir_node(self, line_addr: int) -> NodeId:
        return Network.directory(self.address_map.directory_of(line_addr))

    # ------------------------------------------------------------------
    # Demand reads (all models)
    # ------------------------------------------------------------------
    def read(self, proc: int, line_addr: int) -> float:
        """A demand read: fetch the line into ``proc``'s L1 shared.

        Returns the latency.
        """
        if self.l1s[proc].lookup(line_addr) is not None:
            return self._l1_rt
        return self._fill_from_hierarchy(proc, line_addr, False)

    # ------------------------------------------------------------------
    # Demand writes (baselines: MESI exclusivity)
    # ------------------------------------------------------------------
    def write(self, proc: int, line_addr: int) -> Tuple[float, float]:
        """A demand write under MESI: obtain the line in Modified state.

        Returns ``(latency, inv_latency)``.  ``inv_latency`` is the part
        of the latency that is invalidation/acknowledgement work — the
        part an SC store cannot hide behind an exclusive prefetch, because
        making the write globally visible must wait for retirement.
        """
        l1 = self.l1s[proc]
        line = l1.lookup(line_addr)
        directory = self.home_directory(line_addr)
        if line is not None:
            if line.state in (LineState.MODIFIED, LineState.EXCLUSIVE):
                line.state = LineState.MODIFIED
                directory.entry(line_addr).make_owner(proc)
                return self._l1_rt, 0.0
            # Upgrade from Shared: invalidate the other sharers.
            inv_latency = self._invalidate_sharers(proc, line_addr, directory)
            line.state = LineState.MODIFIED
            directory.entry(line_addr).make_owner(proc)
            return self._l1_rt + inv_latency, inv_latency
        latency = self._fill_from_hierarchy(proc, line_addr, True)
        return latency, self._inv_latency

    # ------------------------------------------------------------------
    # BulkSC fetch: misses are always read requests
    # ------------------------------------------------------------------
    def fetch_for_chunk(
        self,
        proc: int,
        line_addr: int,
        pinned: Optional[Callable[[int], bool]] = None,
        dir_index: Optional[int] = None,
    ) -> float:
        """Bring a line into ``proc``'s L1 for speculative chunk execution.

        The directory only ever records the requester as a *sharer*: the
        access is speculative, so the directory cannot mark the requester
        as holding an updated copy (Section 4.3).  ``pinned`` protects
        speculatively-written lines from victimization; ``dir_index`` is
        the line's home directory, when the caller already resolved it.
        Returns the latency.
        """
        if self.l1s[proc].lookup(line_addr) is not None:
            return self._l1_rt
        return self._fill_from_hierarchy(proc, line_addr, False, pinned, dir_index)

    def would_overflow_l1(
        self, proc: int, line_addr: int, pinned: Callable[[int], bool]
    ) -> bool:
        """True if fetching ``line_addr`` cannot evict anything (all pinned)."""
        l1 = self.l1s[proc]
        return l1.would_overflow(line_addr, pinned)

    # ------------------------------------------------------------------
    # Fill path shared by reads/writes/chunk fetches
    # ------------------------------------------------------------------
    def _fill_from_hierarchy(
        self,
        proc: int,
        line_addr: int,
        exclusive: bool,
        pinned: Optional[Callable[[int], bool]] = None,
        dir_index: Optional[int] = None,
    ) -> float:
        """Fill an L1 miss from a dirty owner, the L2 or memory.

        Returns the latency; an ``exclusive`` fill leaves its
        invalidation part in ``_inv_latency``.
        """
        if dir_index is None:
            dir_index = self.address_map.directory_of(line_addr)
        directory = self.directories[dir_index]
        entry = directory.entry(line_addr)
        proc_node = Network.proc(proc)
        dir_node = Network.directory(dir_index)
        request_latency = self.network.send(
            proc_node, dir_node, TrafficClass.RD_WR, 0
        )
        # Where does the data come from?
        if entry.dirty and entry.owner is not None and entry.owner != proc:
            level, supply_latency = self._fetch_from_owner(
                proc, line_addr, directory, entry, dir_node
            )
        elif self.l2.lookup(line_addr) is not None:
            level = "l2"
            supply_latency = self._l2_rt
        else:
            level = "mem"
            supply_latency = self._mem_rt
            self._insert_l2(line_addr)
        # Data response back to the requester.
        response_latency = self.network.send(
            dir_node, proc_node, TrafficClass.RD_WR, self.line_bytes
        )
        latency = request_latency + supply_latency + response_latency
        if exclusive:
            inv_latency = self._inv_latency = self._invalidate_sharers(
                proc, line_addr, directory
            )
            latency = max(latency, inv_latency)
            entry.make_owner(proc)
            new_state = LineState.MODIFIED
        else:
            entry.sharers.add(proc)
            new_state = LineState.SHARED
        self._insert_l1(proc, line_addr, new_state, pinned)
        counter = self._fill_counters.get(level)
        if counter is None:
            counter = self._fill_counters[level] = self.stats.counter(
                f"coherence.fill.{level}"
            )
        counter.value += 1.0
        return latency

    def _fetch_from_owner(
        self,
        proc: int,
        line_addr: int,
        directory: DirectoryModule,
        entry: DirectoryEntry,
        dir_node: NodeId,
    ):
        """Three-hop transfer: owner's dirty copy supplies the data."""
        owner = entry.owner
        assert owner is not None
        owner_node = self._proc_node(owner)
        owner_l1 = self.l1s[owner]
        owner_line = owner_l1.probe(line_addr)
        forward_latency = self.network.control(dir_node, owner_node)
        if owner_line is None or not owner_line.dirty:
            # False owner (silent displacement or BulkSC aliasing): the
            # directory repairs its state and memory supplies the data.
            directory.resolve_false_owner(line_addr, owner)
            self.stats.bump("coherence.false_owner_repairs")
            return "mem", forward_latency + self._mem_rt
        # Owner writes back and downgrades to Shared.
        owner_line.state = LineState.SHARED
        self._insert_l2(line_addr)
        self.network.send(owner_node, dir_node, TrafficClass.RD_WR, self.line_bytes)
        entry.clear_owner()
        entry.sharers.add(owner)
        self.stats.bump("coherence.cache_to_cache")
        return "remote", forward_latency + self._l1_rt + self._l2_rt

    def _invalidate_sharers(
        self, requesting_proc: int, line_addr: int, directory: DirectoryModule
    ) -> float:
        """Invalidate every other sharer; returns the ack round-trip latency."""
        entry = directory.entry(line_addr)
        others = [p for p in entry.sharers if p != requesting_proc]
        if entry.owner is not None and entry.owner != requesting_proc:
            if entry.owner not in others:
                others.append(entry.owner)
        if not others:
            return 0.0
        dir_node = self._dir_node(line_addr)
        latency = 0.0
        for sharer in others:
            sharer_node = self._proc_node(sharer)
            send = self.network.send(dir_node, sharer_node, TrafficClass.INV, 0)
            victim = self.l1s[sharer].invalidate(line_addr)
            if victim is not None and victim.dirty:
                # Dirty copy flows back with the acknowledgement.
                ack = self.network.send(
                    sharer_node, dir_node, TrafficClass.INV, self.line_bytes
                )
                self._insert_l2(line_addr)
            else:
                ack = self.network.send(sharer_node, dir_node, TrafficClass.INV, 0)
            latency = max(latency, send + ack)
            entry.sharers.discard(sharer)
        entry.clear_owner()
        entry.sharers.add(requesting_proc)
        self.stats.bump("coherence.invalidations", len(others))
        return latency

    # ------------------------------------------------------------------
    # Insert / evict helpers
    # ------------------------------------------------------------------
    def _insert_l1(
        self,
        proc: int,
        line_addr: int,
        state: LineState,
        pinned: Optional[Callable[[int], bool]] = None,
    ) -> None:
        result = self.l1s[proc].insert(line_addr, state, pinned)
        if not result.inserted:
            self.stats.bump("coherence.l1_set_overflows")
            return
        victim = result.victim
        if victim is not None:
            if self.eviction_observer is not None:
                self.eviction_observer(proc, victim.line_addr)
            self._handle_l1_eviction(proc, victim.line_addr, victim.dirty)

    def _handle_l1_eviction(self, proc: int, line_addr: int, dirty: bool) -> None:
        # Clean evictions are *silent* (as in MESI): the directory keeps
        # the stale sharer bit.  This conservatism is load-bearing for
        # BulkSC: a processor whose R signature covers a displaced line
        # still receives committing W signatures for it.
        if dirty:
            # Write back through to L2/memory; the directory clears the
            # owner but *keeps* the processor in the sharer vector — a
            # running chunk may hold the line in its R signature, and the
            # sharer bit is what guarantees it still receives committing
            # W signatures for the line.
            self.network.send(
                self._proc_node(proc),
                self._dir_node(line_addr),
                TrafficClass.RD_WR,
                self.line_bytes,
            )
            self._insert_l2(line_addr)
            self.stats.bump("coherence.l1_writebacks")
            entry = self.home_directory(line_addr).peek(line_addr)
            if entry is not None and entry.owner == proc:
                entry.clear_owner()
                entry.sharers.add(proc)
        self.stats.bump("coherence.l1_evictions")

    def _insert_l2(self, line_addr: int) -> None:
        result = self.l2.insert(line_addr, LineState.SHARED)
        victim = result.victim
        if victim is not None:
            # Inclusive L2: evicting a line removes it everywhere.
            self._back_invalidate(victim.line_addr)
            self.stats.bump("coherence.l2_evictions")

    def _back_invalidate(self, line_addr: int) -> None:
        directory = self.home_directory(line_addr)
        entry = directory.peek(line_addr)
        if entry is None:
            return
        for sharer in list(entry.sharers):
            self.network.send(
                self._dir_node(line_addr),
                self._proc_node(sharer),
                TrafficClass.INV,
                0,
            )
            self.l1s[sharer].invalidate(line_addr)
            entry.sharers.discard(sharer)
        entry.clear_owner()

    # ------------------------------------------------------------------
    # Operations used by the BulkSC commit path
    # ------------------------------------------------------------------
    def invalidate_in_cache(self, proc: int, line_addr: int) -> bool:
        """Bulk-invalidate one line from ``proc``'s L1 (no writeback).

        Used when a committed W signature invalidates stale copies and when
        squashes discard speculatively-written lines.  Returns True if the
        line was resident.
        """
        victim = self.l1s[proc].invalidate(line_addr)
        if victim is not None:
            self.home_directory(line_addr).remove_sharer(line_addr, proc)
            return True
        return False

    def mark_dirty_owner(self, proc: int, line_addr: int) -> None:
        """After commit, the committing L1 holds the only, dirty copy."""
        line = self.l1s[proc].probe(line_addr)
        if line is not None:
            line.state = LineState.MODIFIED

    def writeback_line(self, proc: int, line_addr: int) -> None:
        """Write a dirty non-speculative line back to memory (stays Shared)."""
        line = self.l1s[proc].probe(line_addr)
        if line is None or not line.dirty:
            return
        line.state = LineState.SHARED
        self.network.send(
            self._proc_node(proc),
            self._dir_node(line_addr),
            TrafficClass.RD_WR,
            self.line_bytes,
        )
        self._insert_l2(line_addr)
        entry = self.home_directory(line_addr).entry(line_addr)
        if entry.owner == proc:
            entry.clear_owner()
            entry.sharers.add(proc)
        self.stats.bump("coherence.explicit_writebacks")

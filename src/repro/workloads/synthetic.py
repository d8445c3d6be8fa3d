"""Synthetic workload generators.

:func:`build_profile_workload` turns an :class:`~repro.workloads.profiles.
AppProfile` into per-thread programs over a laid-out address space; the
idiom workloads (partitioned array, producer/consumer, lock contention,
false sharing) are small, assertable programs used by the examples and
the correctness tests.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.rng import DeterministicRng
from repro.memory.address import AddressMap, AddressSpace
from repro.params import SystemConfig
from repro.workloads.profiles import AppProfile, SharingPattern
from repro.workloads.program import ProgramBuilder, Workload

#: Dynamic instructions per generation interval (one default chunk).
INTERVAL_INSTRUCTIONS = 1000


def _make_space(config: SystemConfig) -> AddressSpace:
    address_map = AddressMap(config.memory.words_per_line, config.num_directories)
    return AddressSpace(address_map)


# ---------------------------------------------------------------------------
# Profile-driven generator
# ---------------------------------------------------------------------------

class _ProfileThreadGenerator:
    """Generates one thread's program from a profile.

    The generator controls *distinct lines touched per interval* directly,
    because those are what the paper's Table 3 reports (read/write/private
    write set sizes per 1,000-instruction chunk):

    * shared reads sample ``shared_read_lines`` distinct lines per interval
      from the thread's partition (or wider, per the sharing pattern);
    * shared writes happen only in *publishing* intervals
      (``shared_write_frequency`` of them) and touch
      ``writes_per_publishing_interval`` distinct lines;
    * private writes reuse a *hot* window of ``private_write_lines`` lines
      that rotates slowly (``private_turnover`` lines/interval), so after
      warm-up the lines are dirty non-speculative and the dynamically-
      private optimization classifies them into Wpriv;
    * lock-protected critical sections touch migratory hot lines that are
      *partitioned per lock* — data-race-free by construction, with real
      cross-processor handoffs.
    """

    def __init__(
        self,
        profile: AppProfile,
        proc: int,
        num_threads: int,
        space: AddressSpace,
        rng: DeterministicRng,
        instructions: int,
    ):
        self.profile = profile
        self.proc = proc
        self.num_threads = num_threads
        self.space = space
        self.rng = rng
        self.instructions = instructions
        self.wpl = space.map.words_per_line
        if profile.pattern is SharingPattern.SCATTER:
            # One global array (e.g. radix's key array): every thread's
            # slice shares the same region's high address bits, which is
            # exactly what saturates the signature banks and reproduces
            # radix's pathological aliasing.
            shared_array = space.region("shared_array")
            self.partitions = [shared_array] * num_threads
            self._scatter_array = True
        else:
            self.partitions = [
                space.region(f"shared_part_{p}") for p in range(num_threads)
            ]
            self._scatter_array = False
        self.hot = space.region("hot_set")
        self.locks = space.region("locks") if profile.locks else None
        self.private = space.region(f"private_heap_{proc}")
        self.stack = space.region(f"stack_{proc}")
        self.builder = ProgramBuilder(name=f"{profile.name}.t{proc}")
        self._partition_lines = profile.partition_lines
        self._interval_index = 0
        # Hot private window: the lines written every interval.  Starts at
        # a per-thread offset and creeps forward by private_turnover lines
        # per interval, modeling slow working-set drift.
        self._priv_window_start = 0.0
        self._priv_window = max(1, int(round(profile.private_write_lines)))
        self._stack_hot = 8  # active frames

    # -- address selection ------------------------------------------------
    def _word_in_line(self, region_start: int, line_index: int) -> int:
        return region_start + line_index * self.wpl + self.rng.randint(0, self.wpl - 1)

    def _partition_word(self, owner: int, line: int) -> int:
        if self._scatter_array:
            line = owner * self._partition_lines + line
        return self._word_in_line(self.partitions[owner].start_word, line)

    def _own_partition_word(self) -> int:
        return self._partition_word(
            self.proc, self.rng.randint(0, self._partition_lines - 1)
        )

    def _any_partition_word(self) -> int:
        owner = self.rng.randint(0, self.num_threads - 1)
        return self._partition_word(
            owner, self.rng.randint(0, self._partition_lines - 1)
        )

    def _neighbor_boundary_word(self) -> int:
        neighbor = (self.proc + 1) % self.num_threads
        boundary = max(1, self._partition_lines // 16)
        return self._partition_word(neighbor, self.rng.randint(0, boundary - 1))

    def _shared_read_word(self) -> int:
        pattern = self.profile.pattern
        if pattern in (SharingPattern.READ_WIDE, SharingPattern.MIGRATORY):
            return self._any_partition_word()
        if pattern is SharingPattern.PARTITIONED and self.rng.random() < 0.12:
            return self._neighbor_boundary_word()
        return self._own_partition_word()

    def _shared_write_word(self) -> int:
        if self.profile.pattern is SharingPattern.SCATTER:
            return self._any_partition_word()
        return self._own_partition_word()

    def _hot_read_word(self) -> int:
        line = self.rng.zipf_index(self.profile.hot_lines, alpha=0.8)
        return self._word_in_line(self.hot.start_word, line)

    def _lock_hot_word(self, lock_index: int) -> int:
        """A migratory line owned by one lock (DRF critical sections)."""
        slice_size = max(1, self.profile.hot_lines // max(1, self.profile.locks))
        line = lock_index * slice_size + self.rng.randint(0, slice_size - 1)
        return self._word_in_line(self.hot.start_word, line % self.profile.hot_lines)

    def _private_write_word(self) -> int:
        if self.rng.random() < self.profile.stack_fraction:
            line = self.rng.randint(0, self._stack_hot - 1)
            return self._word_in_line(self.stack.start_word, line)
        start = int(self._priv_window_start)
        line = (start + self.rng.randint(0, self._priv_window - 1)) % self.profile.private_lines
        return self._word_in_line(self.private.start_word, line)

    def _private_read_word(self) -> int:
        # Reads concentrate on the same hot window, adding few new lines
        # to the chunk's read set.
        return self._private_write_word()

    def _lock_addr(self, index: int) -> int:
        assert self.locks is not None
        return self.locks.start_word + (index % self.profile.locks) * self.wpl

    # -- interval generation ---------------------------------------------
    def emit_interval(self) -> None:
        """Emit roughly one chunk's worth (~1,000 instructions) of work."""
        profile = self.profile
        self._interval_index += 1
        self._priv_window_start = (
            self._priv_window_start + profile.private_turnover
        ) % max(1, profile.private_lines)
        memory_budget = int(INTERVAL_INSTRUCTIONS * profile.memory_fraction)
        publishing = self.rng.random() < profile.shared_write_frequency
        # Distinct word sets for this interval.  The profile's read-set
        # target counts *all* lines read per chunk (the paper's Table 3
        # definition), so the private hot window's contribution comes out
        # of the shared sampling budget.
        private_read_lines = self._priv_window + self._stack_hot // 2
        shared_read_count = max(
            2, int(round(profile.shared_read_lines)) - private_read_lines
        )
        read_words = [self._shared_read_word() for __ in range(shared_read_count)]
        write_words = (
            [
                self._shared_write_word()
                for __ in range(max(1, int(round(profile.writes_per_publishing_interval))))
            ]
            if publishing
            else []
        )
        # Access streams: each shared read line touched ~1.3 times; the
        # rest of the memory budget goes to hot private traffic.  Each
        # access is one int, ``word << 1 | is_store``: the schedule holds
        # no per-access tuple, and the shuffle's draws depend only on
        # its length.
        accesses: List[int] = []
        for word in read_words:
            accesses.append(word << 1)
            if self.rng.random() < 0.3:
                accesses.append(word << 1)
        hot_reads = int(memory_budget * self.profile.hot_fraction)
        for __ in range(hot_reads):
            accesses.append(self._hot_read_word() << 1)
        private_writes = max(1, int(round(profile.private_write_lines * 2.0)))
        for __ in range(private_writes):
            accesses.append(self._private_write_word() << 1 | 1)
        remaining = memory_budget - len(accesses)
        for __ in range(max(0, remaining)):
            accesses.append(self._private_read_word() << 1)
        self.rng.shuffle(accesses)
        # Publishing writes go in as one contiguous burst so they land in
        # a single chunk — shared-data publication is phase-like in real
        # applications, which is what makes most commits' W empty.
        if write_words:
            insert_at = self.rng.randint(0, len(accesses))
            accesses[insert_at:insert_at] = [word << 1 | 1 for word in write_words]
        total_memory = len(accesses)
        compute_budget = INTERVAL_INSTRUCTIONS - total_memory
        per_gap = compute_budget / max(1, total_memory)
        carry = 0.0
        in_critical = (
            profile.locks > 0
            and profile.lock_interval > 0
            and self._interval_index % profile.lock_interval == 0
        )
        builder = self.builder
        if in_critical:
            lock_index = self.rng.randint(0, profile.locks - 1)
            builder.acquire(self._lock_addr(lock_index))
            for __ in range(profile.critical_section_lines):
                builder.read_modify_write(self._lock_hot_word(lock_index))
            builder.release(self._lock_addr(lock_index))
        value = self._interval_index
        for access in accesses:
            if access & 1:
                builder.store(access >> 1, value)
            else:
                builder.load(access >> 1)
            carry += per_gap
            if carry >= 1.0:
                burst = int(carry)
                builder.compute(burst)
                carry -= burst

    def _emit_warmup(self) -> None:
        """Initialize the private working set (one concentrated burst).

        Real applications initialize their stacks and private heaps before
        the main loops; concentrating the first-writes here means the
        lines are dirty non-speculative (dypvt-classifiable) from the
        first measured chunk onward instead of polluting W for the whole
        warm-up tail of a short run.
        """
        for line in range(self._stack_hot):
            self.builder.store(
                self._word_in_line(self.stack.start_word, line), 1
            )
        for line in range(self._priv_window):
            self.builder.store(
                self._word_in_line(self.private.start_word, line), 1
            )
            self.builder.compute(3)

    def generate(self) -> ProgramBuilder:
        profile = self.profile
        phases = max(1, profile.barrier_phases)
        total_intervals = max(1, self.instructions // INTERVAL_INSTRUCTIONS)
        per_phase = max(1, total_intervals // phases)
        # Stagger threads so interleavings differ across processors.
        self.builder.compute(self.rng.randint(10, 400))
        self._emit_warmup()
        barrier_id = 0
        for phase in range(phases):
            for __ in range(per_phase):
                self.emit_interval()
            if phases > 1 and phase < phases - 1:
                barrier_id += 1
                self.builder.barrier(barrier_id, self.num_threads)
        return self.builder


def build_profile_workload(
    profile: AppProfile,
    config: SystemConfig,
    num_threads: Optional[int] = None,
    instructions_per_thread: int = 20_000,
    seed: int = 0,
) -> Workload:
    """Generate a full workload from an application profile."""
    return generate_profile_workload(
        profile,
        num_threads if num_threads is not None else config.num_processors,
        config.memory.words_per_line,
        config.num_directories,
        instructions_per_thread,
        seed,
    )


def generate_profile_workload(
    profile: AppProfile,
    threads: int,
    words_per_line: int,
    num_directories: int,
    instructions_per_thread: int,
    seed: int,
) -> Workload:
    """:func:`build_profile_workload` on exactly the inputs it reads.

    The output is a pure function of these arguments: the generator
    forks its own ``DeterministicRng(seed)`` and never sees a
    :class:`~repro.params.SystemConfig`.
    """
    profile.validate()
    space = AddressSpace(
        AddressMap(words_per_line, num_directories), scatter_seed=seed
    )
    wpl = words_per_line
    space.allocate_scattered("hot_set", profile.hot_lines * wpl)
    if profile.pattern is SharingPattern.SCATTER:
        space.allocate_scattered(
            "shared_array", profile.partition_lines * threads * wpl
        )
    else:
        for proc in range(threads):
            space.allocate_scattered(
                f"shared_part_{proc}", profile.partition_lines * wpl
            )
    if profile.locks:
        space.allocate_scattered("locks", profile.locks * wpl)
    for proc in range(threads):
        space.allocate_scattered(
            f"private_heap_{proc}", profile.private_lines * wpl, private_to=proc
        )
        space.allocate_scattered(f"stack_{proc}", 64 * wpl, private_to=proc)
    rng = DeterministicRng(seed).fork(profile.name)
    programs = []
    for proc in range(threads):
        generator = _ProfileThreadGenerator(
            profile,
            proc,
            threads,
            space,
            rng.fork(f"thread{proc}"),
            instructions_per_thread,
        )
        programs.append(generator.generate().build())
    return Workload(
        name=profile.name,
        programs=programs,
        address_space=space,
        metadata={"profile": profile, "seed": seed},
    )


# ---------------------------------------------------------------------------
# Idiom workloads (examples + correctness tests)
# ---------------------------------------------------------------------------

def partitioned_array_workload(
    config: SystemConfig,
    num_threads: Optional[int] = None,
    elements_per_thread: int = 64,
    iterations: int = 4,
) -> Workload:
    """Grid-style kernel: update own slice, barrier, read the neighbour's.

    Deterministic final state: after ``iterations`` rounds every element
    holds ``iterations``; each thread's checksum register equals
    ``iterations * elements_per_thread`` — assertable under every model.
    """
    threads = num_threads if num_threads is not None else config.num_processors
    space = _make_space(config)
    wpl = space.map.words_per_line
    array = space.allocate("array", threads * elements_per_thread * wpl)
    programs = []
    for proc in range(threads):
        builder = ProgramBuilder(name=f"grid.t{proc}")
        base = array.start_word + proc * elements_per_thread * wpl
        neighbor = array.start_word + ((proc + 1) % threads) * elements_per_thread * wpl
        barrier_id = 0
        for it in range(1, iterations + 1):
            for i in range(elements_per_thread):
                builder.store(base + i * wpl, it)
                builder.compute(3)
            barrier_id += 1
            builder.barrier(barrier_id, threads)
            # Read the neighbour's freshly-written slice.
            for i in range(elements_per_thread):
                builder.load(neighbor + i * wpl, reg=f"n{i}")
                builder.compute(1)
            barrier_id += 1
            builder.barrier(barrier_id, threads)
        programs.append(builder.build())
    return Workload("partitioned_array", programs, space,
                    {"iterations": iterations, "elements": elements_per_thread})


def producer_consumer_workload(
    config: SystemConfig,
    payload_words: int = 16,
    rounds: int = 3,
) -> Workload:
    """Flag-based message passing between thread pairs.

    Producer writes a payload then raises a flag; consumer spins on the
    flag and must observe the complete payload — the MP litmus shape at
    workload scale.  Thread 2k produces for thread 2k+1.
    """
    threads = config.num_processors - config.num_processors % 2
    space = _make_space(config)
    wpl = space.map.words_per_line
    pairs = threads // 2
    payload = space.allocate("payload", pairs * rounds * payload_words * wpl)
    flags = space.allocate("flags", pairs * rounds * wpl)
    programs = []
    for proc in range(threads):
        pair = proc // 2
        is_producer = proc % 2 == 0
        builder = ProgramBuilder(name=f"mp.t{proc}")
        for round_index in range(rounds):
            slot = pair * rounds + round_index
            data_base = payload.start_word + slot * payload_words * wpl
            flag_addr = flags.start_word + slot * wpl
            if is_producer:
                for i in range(payload_words):
                    builder.store(data_base + i * wpl, 100 + round_index)
                    builder.compute(5)
                # Release semantics: the payload must be visible before
                # the flag.  SC/TSO order the stores anyway; genuine RC
                # requires the fence (this is what fences are *for*).
                builder.fence()
                builder.store(flag_addr, 1)
                builder.compute(50)
            else:
                builder.spin_until(flag_addr, 1)
                for i in range(payload_words):
                    builder.load(data_base + i * wpl, reg=f"d{round_index}_{i}")
                    builder.compute(5)
        programs.append(builder.build())
    return Workload(
        "producer_consumer",
        programs,
        space,
        {"rounds": rounds, "payload_words": payload_words, "pairs": pairs},
    )


def lock_contention_workload(
    config: SystemConfig,
    num_threads: Optional[int] = None,
    increments_per_thread: int = 10,
    num_counters: int = 1,
    think_time: int = 30,
) -> Workload:
    """Threads increment shared counters under locks.

    Data-race-free by construction: the final counter total must equal
    ``num_threads * increments_per_thread`` under *every* model — the
    DRF-implies-SC evidence for RC, and a direct correctness check for
    BulkSC's in-chunk lock semantics (paper Figure 6).
    """
    threads = num_threads if num_threads is not None else config.num_processors
    space = _make_space(config)
    wpl = space.map.words_per_line
    locks = space.allocate("locks", num_counters * wpl)
    counters = space.allocate("counters", num_counters * wpl)
    programs = []
    for proc in range(threads):
        builder = ProgramBuilder(name=f"locks.t{proc}")
        builder.compute(10 + proc * 7)
        for i in range(increments_per_thread):
            slot = (proc + i) % num_counters
            lock_addr = locks.start_word + slot * wpl
            counter_addr = counters.start_word + slot * wpl
            builder.acquire(lock_addr)
            builder.read_modify_write(counter_addr)
            builder.release(lock_addr)
            builder.compute(think_time)
        programs.append(builder.build())
    return Workload(
        "lock_contention",
        programs,
        space,
        {
            "num_counters": num_counters,
            "expected_total": threads * increments_per_thread,
            "counter_addrs": [
                counters.start_word + s * wpl for s in range(num_counters)
            ],
        },
    )


def false_sharing_workload(
    config: SystemConfig,
    num_threads: Optional[int] = None,
    writes_per_thread: int = 20,
) -> Workload:
    """Every thread hammers its own word of one shared cache line.

    No data races at word granularity, but constant line-level conflicts:
    under BulkSC the W∩W disambiguation term fires continuously, making
    this the worst-case squash stress test.
    """
    threads = num_threads if num_threads is not None else config.num_processors
    space = _make_space(config)
    wpl = space.map.words_per_line
    lines_needed = (threads + wpl - 1) // wpl
    shared = space.allocate("contended", max(1, lines_needed) * wpl)
    programs = []
    for proc in range(threads):
        builder = ProgramBuilder(name=f"false_sharing.t{proc}")
        addr = shared.start_word + proc  # each thread owns one word
        builder.compute(5 + proc * 3)
        for i in range(1, writes_per_thread + 1):
            builder.store(addr, i)
            builder.compute(8)
        builder.load(addr, reg="final")
        programs.append(builder.build())
    return Workload(
        "false_sharing",
        programs,
        space,
        {"writes_per_thread": writes_per_thread, "base_word": shared.start_word},
    )


def work_queue_workload(
    config: SystemConfig,
    num_threads: Optional[int] = None,
    tasks_per_worker: int = 6,
    think_time: int = 40,
) -> Workload:
    """Workers pop tasks from a lock-protected shared queue head.

    The queue head is the canonical *migratory* datum: it bounces between
    processors inside critical sections, which under BulkSC means every
    pop races speculatively and losers squash (paper Figure 6).  Each
    worker records the task ids it popped; correctness is exact under
    every model: the recorded ids across all workers are a permutation of
    ``0 .. total_tasks-1`` (no task lost, none processed twice).
    """
    from repro.cpu.isa import Reg, RegPlus

    threads = num_threads if num_threads is not None else config.num_processors
    space = _make_space(config)
    wpl = space.map.words_per_line
    lock = space.allocate("queue_lock", wpl)
    head = space.allocate("queue_head", wpl)
    results = space.allocate("results", threads * tasks_per_worker * wpl)
    programs = []
    for proc in range(threads):
        builder = ProgramBuilder(name=f"workqueue.t{proc}")
        builder.compute(5 + proc * 9)
        for k in range(tasks_per_worker):
            reg = f"task{k}"
            builder.acquire(lock.start_word)
            builder.load(head.start_word, reg=reg)
            builder.store(head.start_word, RegPlus(reg, 1))
            builder.release(lock.start_word)
            # "Process" the task: record which one we got, then think.
            slot = results.start_word + (proc * tasks_per_worker + k) * wpl
            builder.store(slot, Reg(reg))
            builder.compute(think_time)
        programs.append(builder.build())
    return Workload(
        "work_queue",
        programs,
        space,
        {
            "total_tasks": threads * tasks_per_worker,
            "head_addr": head.start_word,
            "result_addrs": [
                results.start_word + i * wpl
                for i in range(threads * tasks_per_worker)
            ],
        },
    )

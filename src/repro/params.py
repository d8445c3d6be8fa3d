"""System configuration, mirroring Table 2 of the paper.

Three dataclasses describe a simulated machine:

* :class:`ProcessorConfig` — core pipeline and window parameters,
* :class:`MemoryConfig` — cache hierarchy geometry and latencies,
* :class:`BulkSCConfig` — signatures, chunking, and commit arbitration.

:class:`SystemConfig` bundles them with machine-wide parameters (core
count, directory count) and validates cross-field invariants.  The
arbiter topology picks one arbiter range (central) or one per directory
(distributed).
The defaults reproduce the paper's simulated 8-core CMP exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from repro.errors import ConfigError

#: Event budget of one certification run (chaos run, campaign cell,
#: recorded, replayed or explored run): small enough to abort a genuine
#: livelock quickly, large enough that backoff/retry storms still converge.
CERTIFY_MAX_EVENTS = 2_000_000


class ConsistencyModelKind(Enum):
    """Which consistency enforcement scheme a simulation runs."""

    SC = "sc"  # SC + read prefetch + exclusive store prefetch [12]
    RC = "rc"  # RC + speculation across fences + exclusive prefetch
    TSO = "tso"  # extension: store-buffer-only relaxation (x86-like)
    SCPP = "sc++"  # SC++ with SHiQ [15]
    BULKSC = "bulksc"  # this paper


class PrivateDataMode(Enum):
    """Private-data handling for BulkSC (Section 5)."""

    NONE = "none"  # BSCbase
    DYNAMIC = "dynamic"  # BSCdypvt: dirty non-speculative lines -> Wpriv
    STATIC = "static"  # BSCstpvt: stack pages marked private


class ArbiterTopology(Enum):
    """Arbiter organisation (Section 4.2)."""

    CENTRAL = "central"  # single arbiter (possibly combined with directory)
    DISTRIBUTED = "distributed"  # per-address-range arbiters + G-arbiter


@dataclass(frozen=True)
class ProcessorConfig:
    """Core parameters (Table 2, left column)."""

    frequency_ghz: float = 5.0
    fetch_width: int = 6
    issue_width: int = 4
    commit_width: int = 5
    instruction_window: int = 80
    rob_size: int = 176
    load_queue_entries: int = 56
    store_queue_entries: int = 56
    int_registers: int = 176
    fp_registers: int = 90
    branch_penalty_cycles: int = 17

    def validate(self) -> None:
        if self.issue_width <= 0 or self.commit_width <= 0:
            raise ConfigError("issue/commit width must be positive")
        if self.rob_size < self.instruction_window:
            raise ConfigError("ROB must be at least as large as the window")


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/line geometry for one cache level."""

    size_bytes: int
    associativity: int
    line_bytes: int
    round_trip_cycles: int
    mshr_entries: int

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    def validate(self, name: str) -> None:
        if self.size_bytes % self.line_bytes:
            raise ConfigError(f"{name}: size not a multiple of line size")
        if self.num_lines % self.associativity:
            raise ConfigError(f"{name}: lines not divisible by associativity")
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError(f"{name}: number of sets must be a power of two")
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigError(f"{name}: line size must be a power of two")


@dataclass(frozen=True)
class MemoryConfig:
    """Cache hierarchy (Table 2, middle column)."""

    l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=32 * 1024,
            associativity=4,
            line_bytes=32,
            round_trip_cycles=2,
            mshr_entries=8,
        )
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=8 * 1024 * 1024,
            associativity=8,
            line_bytes=32,
            round_trip_cycles=13,
            mshr_entries=32,
        )
    )
    memory_round_trip_cycles: int = 300
    word_bytes: int = 4

    @property
    def words_per_line(self) -> int:
        return self.l1.line_bytes // self.word_bytes

    def validate(self) -> None:
        self.l1.validate("L1")
        self.l2.validate("L2")
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ConfigError("L1 and L2 must share a line size")
        if self.word_bytes & (self.word_bytes - 1):
            raise ConfigError("word size must be a power of two")


@dataclass(frozen=True)
class SignatureConfig:
    """Bloom-signature parameters (Section 2.2 / Table 2)."""

    size_bits: int = 2048
    num_banks: int = 4  # "Organization: Like in [8]" - banked Bloom filter
    exact: bool = False  # BSCexact: magic alias-free signature

    @property
    def bits_per_bank(self) -> int:
        return self.size_bits // self.num_banks

    def validate(self) -> None:
        if self.size_bits % self.num_banks:
            raise ConfigError("signature bits must divide evenly into banks")
        bpb = self.bits_per_bank
        if bpb & (bpb - 1):
            raise ConfigError("bits per bank must be a power of two")


@dataclass(frozen=True)
class ResilienceConfig:
    """Commit-pipeline hardening knobs (fault injection & recovery).

    These govern the watchdog/retry machinery that keeps the chunk-commit
    protocol live when messages are dropped, delayed, or duplicated by a
    :class:`~repro.faults.injector.FaultInjector`.  The watchdogs are only
    armed when an active injector is attached, so fault-free simulations
    are unaffected.
    """

    #: Cycles a commit request (or grant reply) may be outstanding before
    #: the processor resends it.
    commit_timeout_cycles: int = 500
    #: Cycles the acknowledgement collection may take before the arbiter
    #: re-collects (retransmitting undelivered invalidations).
    ack_timeout_cycles: int = 500
    #: Exponential backoff: first resend waits ``base``, doubling per
    #: timeout up to ``cap``.
    retry_backoff_base: int = 100
    retry_backoff_cap: int = 5000
    #: Watchdog timeouts allowed per commit transaction before the run is
    #: aborted with a typed :class:`~repro.errors.CommitTimeoutError`.
    max_commit_retries: int = 10
    #: When False, the first watchdog timeout raises a
    #: :class:`~repro.errors.FaultInducedError` instead of retrying
    #: (the chaos harness's ``--no-retry`` mode).
    retries_enabled: bool = True
    #: Period of the per-processor starvation watchdog; 0 disables it.
    starvation_watchdog_cycles: int = 25_000
    #: Consecutive no-progress watchdog periods tolerated (escalating to
    #: pre-arbitration) before raising a StarvationError.
    starvation_strikes_before_error: int = 6
    #: Cycles between an arbiter crash and the new epoch starting its
    #: reconstruct phase (failure detection + failover election).
    recovery_delay_cycles: int = 600
    #: Budget for a crashed arbiter to return to normal service before
    #: the run fails with a RecoveryError; 0 disables the watchdog.
    recovery_watchdog_cycles: int = 100_000

    def validate(self) -> None:
        if self.commit_timeout_cycles <= 0 or self.ack_timeout_cycles <= 0:
            raise ConfigError("resilience timeouts must be positive")
        if self.retry_backoff_base <= 0 or self.retry_backoff_cap < self.retry_backoff_base:
            raise ConfigError("resilience backoff must be positive and cap >= base")
        if self.max_commit_retries < 1:
            raise ConfigError("need at least one commit retry")
        if self.starvation_watchdog_cycles < 0:
            raise ConfigError("starvation watchdog period cannot be negative")
        if self.starvation_strikes_before_error < 1:
            raise ConfigError("need at least one starvation strike")
        if self.recovery_delay_cycles <= 0:
            raise ConfigError("recovery delay must be positive")
        if self.recovery_watchdog_cycles < 0:
            raise ConfigError("recovery watchdog period cannot be negative")


@dataclass(frozen=True)
class BulkSCConfig:
    """BulkSC-specific parameters (Table 2, right column + Section 5)."""

    signature: SignatureConfig = field(default_factory=SignatureConfig)
    chunks_per_processor: int = 2
    chunk_size_instructions: int = 1000
    commit_arbitration_latency: int = 30
    max_simultaneous_commits: int = 8
    arbiter_topology: ArbiterTopology = ArbiterTopology.CENTRAL
    private_data_mode: PrivateDataMode = PrivateDataMode.NONE
    rsig_optimization: bool = True  # Section 4.2.2, part of the baseline
    private_buffer_lines: int = 24  # Section 5.2
    # Forward progress (Section 3.3): shrink chunk size by this factor per
    # squash of the same chunk; pre-arbitrate after this many squashes.
    squash_shrink_factor: int = 2
    prearbitrate_after_squashes: int = 6
    commit_retry_delay: int = 20  # cycles before a denied commit retries
    # Directory organisation (Section 4.3.3): the paper prefers bounded
    # directory caches for BulkSC because they limit signature-expansion
    # false positives by construction.  Displacements trigger the bulk
    # disambiguation protocol.
    use_directory_cache: bool = False
    directory_cache_sets: int = 1024
    directory_cache_ways: int = 16
    # The naive design of Section 3.2.1: chunk commits are completely
    # serialized (one at a time), instead of overlapping commits with
    # disjoint W signatures.  Kept as an ablation of the advanced design.
    serialize_commits: bool = False
    # Strict protocol checking: arbiter release/abort of an unknown
    # commit_id raises ProtocolError instead of being counted and ignored.
    strict_protocol: bool = False
    # Fault-recovery hardening (timeouts, bounded retries, watchdogs).
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def validate(self) -> None:
        self.signature.validate()
        self.resilience.validate()
        if self.chunks_per_processor < 1:
            raise ConfigError("need at least one chunk per processor")
        if self.chunk_size_instructions < 1:
            raise ConfigError("chunk size must be positive")


@dataclass(frozen=True)
class BaselineConfig:
    """Parameters for the SC / RC / SC++ baseline models."""

    # SC baseline: hardware prefetching for reads and exclusive prefetching
    # for writes [Gharachorloo'91].
    sc_prefetching: bool = True
    # Fraction of a store miss's fetch latency still exposed at retirement
    # under SC despite the exclusive prefetch.  Models prefetch
    # imperfection: finite request bandwidth delays the prefetch past the
    # decode point, and prefetched ownership is stolen under contention,
    # forcing re-acquisition.  RC never exposes store latency at all
    # (store buffer), which is the paper's SC-vs-RC gap.
    sc_store_exposure_fraction: float = 0.5
    # SC++ [Gniady'99]: Speculative History Queue capacity.
    shiq_entries: int = 2048
    # Cycles to replay one instruction after an SC++ squash.
    scpp_replay_cost_per_instruction: float = 1.0
    # SC++lite [Gniady'02]: the SHiQ lives in the memory hierarchy, so
    # capacity stalls vanish but rollback must stream the history back
    # through the caches — replay costs multiply.
    scpp_lite: bool = False
    scpp_lite_replay_multiplier: float = 3.0


@dataclass(frozen=True)
class SystemConfig:
    """Complete machine description."""

    num_processors: int = 8
    num_directories: int = 1
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    bulksc: BulkSCConfig = field(default_factory=BulkSCConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    model: ConsistencyModelKind = ConsistencyModelKind.BULKSC
    seed: int = 0
    # Network: per-hop latency of the generic interconnect, and per-message
    # header overhead in bytes for traffic accounting.
    network_hop_cycles: int = 4
    message_header_bytes: int = 8
    # Topology: "crossbar" (every distinct tile pair two hops apart — the
    # unloaded model behind Table 2's latencies) or "mesh" (2D XY-routed,
    # Manhattan-distance hops, per-link utilization counters).
    network_topology: str = "crossbar"
    mesh_rows: int = 2
    mesh_cols: int = 4

    def validate(self) -> "SystemConfig":
        if self.num_processors < 1:
            raise ConfigError("need at least one processor")
        if self.num_directories < 1:
            raise ConfigError("need at least one directory")
        if self.num_directories & (self.num_directories - 1):
            raise ConfigError("number of directories must be a power of two")
        self.processor.validate()
        self.memory.validate()
        self.bulksc.validate()
        if self.network_topology not in ("crossbar", "mesh"):
            raise ConfigError(
                f"unknown network topology {self.network_topology!r}"
            )
        if (
            self.network_topology == "mesh"
            and self.mesh_rows * self.mesh_cols < self.num_processors
        ):
            raise ConfigError("mesh too small for the processor count")
        return self

    def with_model(self, model: ConsistencyModelKind) -> "SystemConfig":
        return replace(self, model=model)

    def with_bulksc(self, **kwargs) -> "SystemConfig":
        return replace(self, bulksc=replace(self.bulksc, **kwargs))

    def with_signature(self, **kwargs) -> "SystemConfig":
        sig = replace(self.bulksc.signature, **kwargs)
        return replace(self, bulksc=replace(self.bulksc, signature=sig))

    def with_resilience(self, **kwargs) -> "SystemConfig":
        resil = replace(self.bulksc.resilience, **kwargs)
        return replace(self, bulksc=replace(self.bulksc, resilience=resil))


# ---------------------------------------------------------------------------
# Named configurations from the paper's evaluation (Table 2, bottom).
# ---------------------------------------------------------------------------

def paper_config(seed: int = 0) -> SystemConfig:
    """The 8-core CMP with a single directory from Table 2."""
    return SystemConfig(seed=seed).validate()


def bsc_base(seed: int = 0) -> SystemConfig:
    """BSCbase: basic BulkSC of Section 4 (includes the RSig optimization)."""
    cfg = paper_config(seed).with_model(ConsistencyModelKind.BULKSC)
    return cfg.with_bulksc(private_data_mode=PrivateDataMode.NONE).validate()


def bsc_dypvt(seed: int = 0) -> SystemConfig:
    """BSCdypvt: BSCbase + dynamically-private data optimization (5.2)."""
    cfg = paper_config(seed).with_model(ConsistencyModelKind.BULKSC)
    return cfg.with_bulksc(private_data_mode=PrivateDataMode.DYNAMIC).validate()


def bsc_stpvt(seed: int = 0) -> SystemConfig:
    """BSCstpvt: BSCbase + statically-private (stack) data optimization (5.1)."""
    cfg = paper_config(seed).with_model(ConsistencyModelKind.BULKSC)
    return cfg.with_bulksc(private_data_mode=PrivateDataMode.STATIC).validate()


def bsc_exact(seed: int = 0) -> SystemConfig:
    """BSCexact: BSCdypvt with a magic alias-free signature."""
    cfg = bsc_dypvt(seed)
    return cfg.with_signature(exact=True).validate()


def sc_config(seed: int = 0) -> SystemConfig:
    """SC baseline with prefetching optimizations."""
    return paper_config(seed).with_model(ConsistencyModelKind.SC).validate()


def rc_config(seed: int = 0) -> SystemConfig:
    """RC baseline with speculative execution across fences."""
    return paper_config(seed).with_model(ConsistencyModelKind.RC).validate()


def tso_config(seed: int = 0) -> SystemConfig:
    """TSO extension: RC machinery with FIFO (in-order) store drains."""
    return paper_config(seed).with_model(ConsistencyModelKind.TSO).validate()


def scpp_config(seed: int = 0) -> SystemConfig:
    """SC++ baseline with a 2K-entry SHiQ."""
    return paper_config(seed).with_model(ConsistencyModelKind.SCPP).validate()


#: Mapping from the paper's configuration names to factory functions.
NAMED_CONFIGS = {
    "SC": sc_config,
    "RC": rc_config,
    "TSO": tso_config,
    "SC++": scpp_config,
    "BSCbase": bsc_base,
    "BSCdypvt": bsc_dypvt,
    "BSCstpvt": bsc_stpvt,
    "BSCexact": bsc_exact,
}

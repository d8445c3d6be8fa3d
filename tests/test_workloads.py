"""Tests for workload generation: builder, profiles, generators."""

from dataclasses import replace

import pytest

from repro.cpu.isa import Barrier, Compute, Load, LockAcquire, LockRelease, OpKind, Store
from repro.errors import ConfigError
from repro.harness.runner import ALL_APPS, build_app_workload, generate_app_workload
from repro.params import (
    bsc_dypvt,
    bsc_exact,
    bsc_stpvt,
    paper_config,
    rc_config,
    sc_config,
)
from repro.system import run_workload
from repro.workloads import (
    COMMERCIAL_PROFILES,
    SPLASH2_PROFILES,
    AppProfile,
    ProgramBuilder,
    SharingPattern,
    build_profile_workload,
    commercial_workload,
    false_sharing_workload,
    lock_contention_workload,
    partitioned_array_workload,
    producer_consumer_workload,
    splash2_workload,
)
from repro.workloads.splash2 import SPLASH2_ORDER


class TestProgramBuilder:
    def test_fluent_construction(self):
        program = (
            ProgramBuilder("p")
            .load(8)
            .compute(5)
            .store(16, 1)
            .acquire(0)
            .release(0)
            .build()
        )
        kinds = [op.kind for op in program]
        assert kinds == [
            OpKind.LOAD,
            OpKind.COMPUTE,
            OpKind.STORE,
            OpKind.ACQUIRE,
            OpKind.RELEASE,
        ]

    def test_auto_register_names_unique(self):
        builder = ProgramBuilder()
        builder.load(8)
        builder.load(16)
        regs = [op.reg for op in builder.ops()]
        assert len(set(regs)) == 2

    def test_zero_compute_skipped(self):
        builder = ProgramBuilder()
        builder.compute(0)
        assert len(builder) == 0

    def test_read_modify_write_shape(self):
        ops = ProgramBuilder().read_modify_write(8).ops()
        assert [op.kind for op in ops] == [OpKind.LOAD, OpKind.COMPUTE, OpKind.STORE]


class TestProfiles:
    def test_all_eleven_splash2_apps_present(self):
        assert len(SPLASH2_PROFILES) == 11
        assert set(SPLASH2_ORDER) == set(SPLASH2_PROFILES)

    def test_commercial_apps_present(self):
        assert set(COMMERCIAL_PROFILES) == {"sjbb2k", "sweb2005"}

    def test_profiles_validate(self):
        for profile in list(SPLASH2_PROFILES.values()) + list(
            COMMERCIAL_PROFILES.values()
        ):
            profile.validate()

    def test_radix_is_scatter_with_few_stack_refs(self):
        radix = SPLASH2_PROFILES["radix"]
        assert radix.pattern is SharingPattern.SCATTER
        assert radix.stack_fraction < 0.1

    def test_water_is_mostly_private(self):
        water = SPLASH2_PROFILES["water-sp"]
        assert water.shared_write_frequency < 0.02

    def test_commercial_writes_more_than_splash(self):
        sjbb = COMMERCIAL_PROFILES["sjbb2k"]
        barnes = SPLASH2_PROFILES["barnes"]
        assert sjbb.shared_write_frequency > barnes.shared_write_frequency

    def test_validation_catches_bad_values(self):
        with pytest.raises(ConfigError):
            AppProfile(name="bad", memory_fraction=0.0).validate()
        with pytest.raises(ConfigError):
            AppProfile(name="bad", shared_write_frequency=2.0).validate()

    def test_writes_per_publishing_interval(self):
        profile = AppProfile(
            name="x", shared_write_lines=2.0, shared_write_frequency=0.25
        )
        assert profile.writes_per_publishing_interval == 8.0


class TestProfileWorkloads:
    def test_deterministic_generation(self, config=paper_config()):
        a = splash2_workload("barnes", config, instructions_per_thread=3000, seed=5)
        b = splash2_workload("barnes", config, instructions_per_thread=3000, seed=5)
        assert a.total_instructions == b.total_instructions
        for pa, pb in zip(a.programs, b.programs):
            assert list(pa) == list(pb)

    def test_seeds_change_programs(self):
        config = paper_config()
        a = splash2_workload("barnes", config, 3000, seed=1)
        b = splash2_workload("barnes", config, 3000, seed=2)
        assert any(list(pa) != list(pb) for pa, pb in zip(a.programs, b.programs))

    def test_instruction_count_near_target(self):
        config = paper_config()
        workload = splash2_workload("lu", config, instructions_per_thread=10_000)
        for program in workload.programs:
            assert 6_000 <= program.total_instructions <= 16_000

    def test_one_program_per_processor(self):
        config = paper_config()
        workload = splash2_workload("fft", config, 3000)
        assert workload.num_threads == config.num_processors

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            splash2_workload("doom", paper_config(), 1000)
        with pytest.raises(KeyError):
            commercial_workload("quake", paper_config(), 1000)

    def test_memory_fraction_respected(self):
        config = paper_config()
        workload = splash2_workload("barnes", config, 10_000)
        program = workload.programs[0]
        mem_fraction = program.memory_op_count / program.total_instructions
        target = SPLASH2_PROFILES["barnes"].memory_fraction
        assert abs(mem_fraction - target) < 0.12

    def test_barrier_phases_inserted(self):
        config = paper_config()
        workload = splash2_workload("ocean", config, 12_000)
        barrier_ops = [
            op for op in workload.programs[0] if isinstance(op, Barrier)
        ]
        assert len(barrier_ops) == SPLASH2_PROFILES["ocean"].barrier_phases - 1

    def test_locks_are_balanced(self):
        config = paper_config()
        workload = commercial_workload("sjbb2k", config, 20_000)
        for program in workload.programs:
            acquires = sum(1 for op in program if isinstance(op, LockAcquire))
            releases = sum(1 for op in program if isinstance(op, LockRelease))
            assert acquires == releases

    def test_scatter_app_uses_single_region(self):
        config = paper_config()
        workload = splash2_workload("radix", config, 3000)
        assert workload.address_space.region("shared_array") is not None

    def test_private_regions_are_per_thread(self):
        config = paper_config()
        workload = splash2_workload("barnes", config, 3000)
        space = workload.address_space
        for proc in range(config.num_processors):
            region = space.region(f"private_heap_{proc}")
            assert region.private_to == proc


class TestIdiomWorkloads:
    def test_lock_contention_metadata(self):
        config = paper_config()
        workload = lock_contention_workload(config, increments_per_thread=3)
        assert workload.metadata["expected_total"] == 8 * 3

    def test_partitioned_array_structure(self):
        config = paper_config()
        workload = partitioned_array_workload(
            config, elements_per_thread=4, iterations=2
        )
        assert workload.num_threads == 8
        barriers = [op for op in workload.programs[0] if isinstance(op, Barrier)]
        assert len(barriers) == 4  # two per iteration

    def test_producer_consumer_pairs(self):
        config = paper_config()
        workload = producer_consumer_workload(config, rounds=2)
        assert workload.metadata["pairs"] == 4
        assert workload.num_threads == 8

    def test_false_sharing_targets_one_line(self):
        config = paper_config()
        workload = false_sharing_workload(config, num_threads=4)
        base = workload.metadata["base_word"]
        stores = [
            op
            for program in workload.programs
            for op in program
            if isinstance(op, Store)
        ]
        lines = {op.addr // 8 for op in stores}
        assert len(lines) == 1  # 4 threads, 8 words/line


def _with_line_bytes(config, line_bytes):
    memory = replace(
        config.memory,
        l1=replace(config.memory.l1, line_bytes=line_bytes),
        l2=replace(config.memory.l2, line_bytes=line_bytes),
    )
    return replace(config, memory=memory).validate()


def _snapshot(workload):
    """Everything a run could disturb in a workload, as plain values."""
    return (
        workload.name,
        [(program.name, list(program)) for program in workload.programs],
        workload.address_space.regions(),
        workload.address_space.highest_word,
        workload.total_instructions,
        dict(workload.metadata),
    )


class TestAppWorkloadMemo:
    """``build_app_workload`` shares one workload per generator input."""

    APP, INSTRUCTIONS, SEED = "ocean", 1500, 3

    def build(self, config, instructions=INSTRUCTIONS, seed=SEED):
        return build_app_workload(self.APP, config, instructions, seed)

    def test_configs_share_one_workload(self):
        shared = self.build(sc_config(seed=self.SEED))
        for config in (
            rc_config(seed=self.SEED),
            bsc_dypvt(seed=self.SEED),
            bsc_exact(seed=self.SEED),
            bsc_dypvt(seed=self.SEED).with_bulksc(chunk_size_instructions=500),
        ):
            assert self.build(config) is shared

    @pytest.mark.parametrize(
        "change",
        [
            lambda t, c: t.build(c, seed=t.SEED + 1),
            lambda t, c: t.build(c, instructions=t.INSTRUCTIONS + 1000),
            lambda t, c: t.build(replace(c, num_processors=4).validate()),
            lambda t, c: t.build(_with_line_bytes(c, 64)),
            lambda t, c: t.build(replace(c, num_directories=2).validate()),
        ],
        ids=["seed", "instructions", "num_processors", "words_per_line", "num_directories"],
    )
    def test_generator_inputs_change_the_workload(self, change):
        config = bsc_dypvt(seed=self.SEED)
        assert change(self, config) is not self.build(config)

    def test_generator_arguments_are_the_key(self):
        config = paper_config()
        assert build_app_workload("fft", config, 1000, 0) is generate_app_workload(
            "fft",
            config.num_processors,
            config.memory.words_per_line,
            config.num_directories,
            1000,
            0,
        )

    @pytest.mark.parametrize("app", ALL_APPS)
    def test_memoized_equals_fresh_build(self, app):
        config = paper_config()
        memoized = build_app_workload(app, config, 1000, 0)
        profiles = COMMERCIAL_PROFILES if app in COMMERCIAL_PROFILES else SPLASH2_PROFILES
        fresh = build_profile_workload(
            profiles[app], config, instructions_per_thread=1000, seed=0
        )
        assert fresh is not memoized
        assert _snapshot(memoized) == _snapshot(fresh)

    def test_programs_are_a_tuple(self):
        workload = self.build(paper_config())
        assert isinstance(workload.programs, tuple)

    @pytest.mark.parametrize("config_fn", [sc_config, bsc_dypvt, bsc_stpvt])
    def test_run_leaves_shared_workload_unchanged(self, config_fn):
        config = config_fn(seed=self.SEED)
        workload = self.build(config)
        before = _snapshot(workload)
        run_workload(
            config, workload.programs, workload.address_space, record_history=False
        )
        assert _snapshot(workload) == before
        assert self.build(config) is workload

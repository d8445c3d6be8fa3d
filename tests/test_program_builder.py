"""ProgramBuilder edge cases and Workload barrier validation.

These are exactly the malformed shapes the static analyzer must handle
gracefully, so each case is checked twice: once for builder/workload
behaviour, once through :func:`repro.analysis.footprint.analyze_programs`.
"""

import pytest

from repro.analysis.footprint import analyze_programs
from repro.cpu.isa import (
    Barrier,
    Compute,
    Fence,
    Io,
    Load,
    LockAcquire,
    LockRelease,
    Reg,
    RegPlus,
    SpinUntil,
    Store,
)
from repro.cpu.opstream import K_COMPUTE, K_LOAD, K_RELEASE, K_STORE, V_REGPLUS
from repro.cpu.thread import ThreadProgram
from repro.errors import ProgramError
from repro.memory.address import AddressMap, AddressSpace
from repro.workloads.program import ProgramBuilder, Workload, validate_barriers


def space():
    return AddressSpace(AddressMap(words_per_line=8, num_directories=1))


class TestBuilderEdgeCases:
    def test_empty_program_builds(self):
        program = ProgramBuilder("empty").build()
        assert len(program) == 0
        assert program.total_instructions == 0
        analysis = analyze_programs([program])
        assert analysis.footprints[0].accesses == []

    def test_compute_zero_is_noop(self):
        builder = ProgramBuilder().compute(0)
        assert len(builder) == 0

    def test_compute_negative_rejected(self):
        with pytest.raises(ProgramError, match="compute count"):
            ProgramBuilder().compute(-1)

    def test_auto_register_names_unique(self):
        builder = ProgramBuilder().load(0x10).load(0x20).load(0x30)
        regs = [op.reg for op in builder.ops()]
        assert len(set(regs)) == 3

    def test_duplicate_register_name_warned_by_analyzer(self):
        builder = ProgramBuilder().load(0x10, reg="r1").load(0x20, reg="r1")
        analysis = analyze_programs([builder.build()])
        assert any(
            "reloaded" in w for w in analysis.footprints[0].warnings
        )

    def test_unbalanced_acquire_flagged_by_analyzer(self):
        builder = ProgramBuilder().acquire(0x100).store(0x10, 1)
        analysis = analyze_programs([builder.build()])
        fp = analysis.footprints[0]
        assert fp.unreleased_locks == {0x100}
        assert any("ends holding" in w for w in fp.warnings)

    def test_release_without_acquire_flagged_by_analyzer(self):
        builder = ProgramBuilder().release(0x100)
        analysis = analyze_programs([builder.build()])
        assert any(
            "never acquired" in w
            for w in analysis.footprints[0].warnings
        )

    def test_critical_section_balances(self):
        builder = ProgramBuilder().critical_section(
            0x100, [Store(0x10, 1), Load("r1", 0x10)]
        )
        analysis = analyze_programs([builder.build()])
        assert analysis.footprints[0].unreleased_locks == frozenset()
        assert analysis.footprints[0].warnings == []


class TestBarrierValidation:
    def test_consistent_barriers_accepted(self):
        programs = [
            ProgramBuilder().barrier(1, 2).build(),
            ProgramBuilder().barrier(1, 2).build(),
        ]
        workload = Workload("ok", programs, space())
        assert workload.num_threads == 2

    def test_mismatched_participant_counts_rejected(self):
        programs = [
            ProgramBuilder().barrier(1, 2).build(),
            ProgramBuilder().barrier(1, 3).build(),
        ]
        with pytest.raises(ProgramError, match="inconsistent participant"):
            Workload("bad", programs, space())

    def test_participants_exceeding_threads_rejected(self):
        programs = [ProgramBuilder().barrier(1, 5).build()]
        with pytest.raises(ProgramError, match="only 1 thread"):
            Workload("bad", programs, space())

    def test_too_few_users_rejected(self):
        # Two participants declared, one thread arrives: would hang.
        programs = [
            ProgramBuilder().barrier(1, 2).build(),
            ProgramBuilder().store(0x10, 1).build(),
        ]
        with pytest.raises(ProgramError, match="never release"):
            Workload("bad", programs, space())

    def test_unequal_generation_counts_rejected(self):
        programs = [
            ProgramBuilder().barrier(1, 2).barrier(1, 2).build(),
            ProgramBuilder().barrier(1, 2).build(),
        ]
        with pytest.raises(ProgramError, match="generation counts"):
            Workload("bad", programs, space())

    def test_nonpositive_participants_rejected(self):
        programs = [ThreadProgram([Barrier(1, 0)], name="t0")]
        with pytest.raises(ProgramError, match=">= 1"):
            Workload("bad", programs, space())

    def test_subset_barrier_accepted(self):
        # Two of three threads rendezvous: legal as long as exactly the
        # declared participants use the id the same number of times.
        programs = [
            ProgramBuilder().barrier(7, 2).build(),
            ProgramBuilder().barrier(7, 2).build(),
            ProgramBuilder().store(0x10, 1).build(),
        ]
        workload = Workload("ok", programs, space())
        assert workload.num_threads == 3

    def test_validate_barriers_direct(self):
        validate_barriers([])  # no programs, no barriers: fine
        validate_barriers(
            [ThreadProgram([Store(0x10, 1)], name="t0")]
        )

    def test_bundled_workloads_validate(self):
        # Every bundled app must pass its own build-time validation.
        from repro.harness.runner import ALL_APPS, build_app_workload
        from repro.params import bsc_dypvt

        config = bsc_dypvt(seed=0)
        for app in list(ALL_APPS)[:4]:
            workload = build_app_workload(app, config, 500, 0)
            assert workload.num_threads >= 1


class _TaggedLoad(Load):
    """An op-dataclass subclass: the columns cannot express it exactly."""


def _columns(program):
    return (
        program.kinds, program.args, program.regs, program.vspecs,
        program.side_ops, program.total_instructions, program.memory_op_count,
    )


class TestEncoderPath:
    """The builder writes into the encoder; the result must equal what
    encoding the same ops as a list gives."""

    @staticmethod
    def every_form():
        """A builder using every method and store operand form, and the
        op list it stands for."""
        builder = (
            ProgramBuilder("forms")
            .compute(5)
            .load(0x10)
            .load(0x18, reg="r")
            .store(0x20, 7)
            .store(0x28, True)  # an int subclass
            .store(0x30, Reg("r"))
            .store(0x38, RegPlus("r", -2))
            .store(0x40, 1.5)  # an operand no value spec expresses
            .acquire(0x100)
            .release(0x100)
            .barrier(3, 1)
            .fence()
            .spin_until(0x48, 1)
            .io(2, 9)
            .io(3, RegPlus("r", 1))
            .read_modify_write(0x50, addend=4)
            .critical_section(0x108, [_TaggedLoad("x", 0x58), Store(0x60, Reg("x"))])
        )
        ops = [
            Compute(5),
            Load("t1", 0x10),
            Load("r", 0x18),
            Store(0x20, 7),
            Store(0x28, True),
            Store(0x30, Reg("r")),
            Store(0x38, RegPlus("r", -2)),
            Store(0x40, 1.5),
            LockAcquire(0x100),
            LockRelease(0x100),
            Barrier(3, 1),
            Fence(),
            SpinUntil(0x48, 1),
            Io(2, 9),
            Io(3, RegPlus("r", 1)),
            Load("t2", 0x50),
            Compute(2),
            Store(0x50, RegPlus("t2", 4)),
            LockAcquire(0x108),
            _TaggedLoad("x", 0x58),
            Store(0x60, Reg("x")),
            LockRelease(0x108),
        ]
        return builder, ops

    def test_build_equals_encoding_the_op_list(self):
        builder, ops = self.every_form()
        built = builder.build()
        assert _columns(built) == _columns(ThreadProgram(ops))
        assert built.name == "forms"
        assert type(built[19]) is _TaggedLoad  # kept as itself
        assert sorted(built.side_ops) == [7, 8, 10, 12, 13, 14, 18, 19]

    def test_ops_round_trip(self):
        builder, ops = self.every_form()
        assert builder.ops() == ops
        assert len(builder) == len(ops)
        assert _columns(ThreadProgram(builder.ops())) == _columns(builder.build())

    def test_appending_after_build_leaves_the_program_unchanged(self):
        builder, __ = self.every_form()
        built = builder.build()
        before = _columns(built)
        before_ops = list(built)
        builder.load(0x70).store(0x78, 1.5).compute(4).fence()
        assert _columns(built) == before
        assert list(built) == before_ops
        assert len(builder.build()) == len(built) + 4

    def test_profile_generation_builds_no_op_objects(self, monkeypatch):
        """Loads, compute bursts and stores go straight into the columns.

        Constructing a Load, Compute or Store anywhere (the classes
        ``workloads.program`` and ``workloads.synthetic`` would look up
        included) raises while an app with locks and barriers generates.
        """
        from repro.harness.runner import generate_app_workload
        from repro.params import bsc_dypvt

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__} op")

        for cls in (Load, Compute, Store):
            monkeypatch.setattr(cls, "__init__", forbidden)
        config = bsc_dypvt(seed=0)
        # radiosity takes a lock every 10 intervals and has 2 barrier
        # phases, so 10 intervals reach every op the generator emits.
        workload = generate_app_workload.__wrapped__(
            "radiosity", config.num_processors, config.memory.words_per_line,
            config.num_directories, 10_000, 0,
        )
        program = workload.programs[0]
        assert {type(op) for op in program.side_ops.values()} == {
            LockAcquire, Barrier,
        }
        assert {K_LOAD, K_STORE, K_COMPUTE, K_RELEASE} <= set(program.kinds)
        assert any(v is not None and v[0] == V_REGPLUS for v in program.vspecs)

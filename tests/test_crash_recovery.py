"""Tests for arbiter crash-recovery: epoch/lease failover with SC preserved.

Covers the epoch/mode state machine on the central arbiter, the
distributed arbiter's strict-protocol parity and the G-arbiter W cache,
scripted crash parsing, the system-level crash sweep (the acceptance
criterion: kill the arbiter at every pipeline phase across seeds and
litmus workloads and certify SC on every run), record/replay of crash
traces, and the chaos CLI's exit-code contract.
"""

import pytest

from repro.__main__ import _chaos_exit_code
from repro.coherence.dirbdm import DirBDM
from repro.coherence.directory import DirectoryModule
from repro.core.arbiter import Arbiter, ArbiterMode
from repro.core.distributed_arbiter import DistributedArbiter, GlobalArbiter
from repro.errors import ConfigError, ProtocolError
from repro.faults.chaos import ChaosReport, ChaosRunRecord, run_chaos
from repro.faults.injector import FaultInjector, ScriptedFaultInjector
from repro.faults.plan import CrashPoint, FaultPlan, crash_script_from
from repro.params import ArbiterTopology, BulkSCConfig, bsc_dypvt
from repro.replay.recorder import record_run
from repro.replay.replayer import replay_trace
from repro.replay.schema import TraceValidationError
from repro.replay.workload import build_workload, litmus_spec
from repro.signatures.exact import ExactSignature
from repro.system import run_workload
from repro.verify.sc_checker import check_sequential_consistency


def sig(*lines):
    s = ExactSignature()
    s.insert_many(lines)
    return s


@pytest.fixture
def arbiter():
    return Arbiter(BulkSCConfig())


# ---------------------------------------------------------------------------
# Central arbiter: epoch / mode state machine
# ---------------------------------------------------------------------------
class TestArbiterEpoch:
    def test_crash_bumps_epoch_and_drops_w_list(self, arbiter):
        arbiter.admit(1, 0, sig(10), 0.0)
        arbiter.admit(2, 1, sig(20), 0.0)
        assert arbiter.epoch == 1
        dropped = arbiter.crash(5.0)
        assert dropped == 2
        assert arbiter.epoch == 2
        assert arbiter.mode is ArbiterMode.DOWN
        assert arbiter.list_empty

    def test_down_arbiter_denies_everything(self, arbiter):
        arbiter.crash(0.0)
        decision = arbiter.decide(0, sig(1), None, now=1.0)
        assert not decision.granted
        assert "down" in decision.reason

    def test_down_arbiter_refuses_reservations(self, arbiter):
        arbiter.crash(0.0)
        assert not arbiter.reserve(0)
        arbiter.begin_reconstruction(1.0)
        assert not arbiter.reserve(0)

    def test_reconstruction_serves_serially(self, arbiter):
        """RECONSTRUCTING grants only against an empty list: one at a time."""
        arbiter.crash(0.0)
        arbiter.begin_reconstruction(1.0)
        first = arbiter.decide(0, sig(1), None, now=2.0)
        assert first.granted  # empty list -> safe to serve
        arbiter.admit(1, 0, sig(1), 2.0)
        second = arbiter.decide(1, sig(2), sig(), now=3.0)
        assert not second.granted
        assert "reconstruct" in second.reason

    def test_readmit_then_drain_restores_normal_mode(self, arbiter):
        recovered_at = []
        arbiter.on_recovered = recovered_at.append
        arbiter.crash(0.0)
        arbiter.begin_reconstruction(1.0)
        arbiter.readmit(7, 0, sig(10), 2.0)
        arbiter.finish_reconstruction_if_drained(2.0)
        assert arbiter.mode is ArbiterMode.RECONSTRUCTING  # survivor in flight
        arbiter.release(7, 3.0, epoch=arbiter.epoch)
        assert arbiter.mode is ArbiterMode.NORMAL
        assert recovered_at == [3.0]

    def test_readmit_skips_empty_w_and_is_idempotent(self, arbiter):
        arbiter.crash(0.0)
        arbiter.begin_reconstruction(1.0)
        arbiter.readmit(7, 0, sig(), 2.0)
        assert arbiter.list_empty
        arbiter.readmit(8, 0, sig(5), 2.0)
        arbiter.readmit(8, 0, sig(5), 2.5)
        assert arbiter.pending_count == 1
        assert arbiter.stats.value("arbiter0.readmitted") == 1

    def test_dead_epoch_release_tolerated_even_under_strict(self):
        arbiter = Arbiter(BulkSCConfig(strict_protocol=True))
        arbiter.admit(1, 0, sig(10), 0.0)
        grant_epoch = arbiter.epoch
        arbiter.crash(1.0)
        # The processor releases quoting the epoch it was granted under;
        # that incarnation is dead, so this must not raise.
        arbiter.release(1, 2.0, epoch=grant_epoch)
        assert arbiter.stats.value("arbiter0.released_dead_epoch") == 1

    def test_current_epoch_unknown_release_still_strict(self):
        arbiter = Arbiter(BulkSCConfig(strict_protocol=True))
        with pytest.raises(ProtocolError):
            arbiter.release(99, 0.0, epoch=arbiter.epoch)


# ---------------------------------------------------------------------------
# Satellite: G-arbiter fast_deny unit coverage
# ---------------------------------------------------------------------------
class TestGlobalArbiterFastDeny:
    def test_w_overlap_fast_denied(self):
        g = GlobalArbiter()
        g.note_granted(1, sig(10))
        assert g.fast_deny(None, sig(10))
        assert g.stats.value("garbiter.fast_denies") == 1

    def test_r_overlap_fast_denied(self):
        g = GlobalArbiter()
        g.note_granted(1, sig(10))
        assert g.fast_deny(sig(10), sig(99))

    def test_disjoint_passes_through(self):
        g = GlobalArbiter()
        g.note_granted(1, sig(10))
        assert not g.fast_deny(sig(3), sig(4))

    def test_released_entry_no_longer_denies(self):
        """A stale cached W must not fast-deny after note_released."""
        g = GlobalArbiter()
        g.note_granted(1, sig(10))
        g.note_released(1)
        assert not g.fast_deny(None, sig(10))

    def test_crash_drops_cache(self):
        g = GlobalArbiter()
        g.note_granted(1, sig(10))
        g.note_granted(2, sig(20))
        assert g.crash() == 2
        assert not g.fast_deny(None, sig(10))
        assert g.stats.value("garbiter.crashes") == 1


# ---------------------------------------------------------------------------
# Satellite: DistributedArbiter release/abort strict-protocol parity
# ---------------------------------------------------------------------------
def make_distributed(num_ranges=4, strict=False):
    config = BulkSCConfig(
        arbiter_topology=ArbiterTopology.DISTRIBUTED,
        strict_protocol=strict,
    )
    return DistributedArbiter(config, num_ranges)


class TestDistributedStrictParity:
    def test_unknown_release_raises_under_strict(self):
        arb = make_distributed(strict=True)
        with pytest.raises(ProtocolError, match="release of unknown commit"):
            arb.release(99, 0.0)

    def test_unknown_abort_raises_under_strict(self):
        arb = make_distributed(strict=True)
        with pytest.raises(ProtocolError, match="abort of unknown commit"):
            arb.abort(99, 0.0)

    def test_unknown_release_counted_when_lenient(self):
        arb = make_distributed(strict=False)
        arb.release(99, 0.0)
        arb.abort(98, 0.0)
        assert arb.stats.value("distarb.released_unknown") == 2

    def test_empty_w_admit_never_enters_any_range(self):
        """Parity with the central arbiter: empty W skips the list."""
        arb = make_distributed(strict=True)
        arb.admit(1, 0, sig(), ranges=(0, 1), now=0.0)
        assert arb.pending_count == 0
        # ... and therefore its release is "unknown", exactly like central.
        with pytest.raises(ProtocolError):
            arb.release(1, 1.0)

    def test_release_with_stale_lease_tolerated(self):
        arb = make_distributed(strict=True)
        arb.admit(1, 0, sig(0), ranges=(0,), now=0.0)
        lease = arb.lease_for((0,))
        arb.arbiters[0].crash(1.0)
        arb.release(1, 2.0, lease=lease)  # dead-epoch path, must not raise
        assert arb.stats.value("arbiter0.released_dead_epoch") == 1


# ---------------------------------------------------------------------------
# Crash-point parsing
# ---------------------------------------------------------------------------
class TestCrashPointParsing:
    def test_parse_full_spelling(self):
        cp = CrashPoint.parse("grant:2:arbiter1")
        assert (cp.point.value, cp.occurrence, cp.target) == ("grant", 2, "arbiter1")
        assert cp.canonical() == "grant:2:arbiter1"

    def test_default_target(self):
        assert CrashPoint.parse("ack:1").target == "arbiter0"

    def test_bad_point_rejected(self):
        with pytest.raises(ConfigError):
            CrashPoint.parse("warp-core:1")

    def test_bad_occurrence_rejected(self):
        with pytest.raises(ConfigError):
            CrashPoint.parse("grant:0")

    def test_script_mapping(self):
        script = crash_script_from(["grant:1:arbiter0", "ack:3:global"])
        assert script == {("grant", 1): "arbiter0", ("ack", 3): "global"}


# ---------------------------------------------------------------------------
# ACCEPTANCE: crash sweep over the commit pipeline — SC on every run
# ---------------------------------------------------------------------------
SWEEP_POINTS = ["commit-request", "grant", "invalidation", "ack"]
SWEEP_LITMUS = ["SB", "MP", "LB", "IRIW"]


class TestCrashSweep:
    @pytest.mark.parametrize("point", SWEEP_POINTS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", SWEEP_LITMUS)
    def test_sc_preserved_across_crash(self, point, seed, name):
        config = bsc_dypvt(seed=seed)
        programs, space, test = build_workload(litmus_spec(name, (1, 1)), config)
        injector = ScriptedFaultInjector(
            crash_script=crash_script_from([f"{point}:1:arbiter0"]),
            label=f"sweep/{name}/s{seed}/{point}",
        )
        result = run_workload(config, programs, space, fault_injector=injector)
        check = check_sequential_consistency(result.history)
        assert check.ok, check.reason
        assert not test.forbidden(result.registers)

    def test_grant_crash_exercises_full_recovery(self):
        """The grant-point crash drops an in-flight W and recovers it."""
        config = bsc_dypvt(seed=0)
        programs, space, _ = build_workload(litmus_spec("MP", (1, 1)), config)
        injector = ScriptedFaultInjector(
            crash_script=crash_script_from(["grant:1:arbiter0"]),
            label="grant-crash",
        )
        result = run_workload(config, programs, space, fault_injector=injector)
        assert injector.crashes_fired == 1
        assert result.stat("recovery.crashes") == 1
        assert result.stat("commit.stale_epoch_grants") >= 1
        assert result.stat("arbiter0.readmitted") >= 1
        assert result.stat("recovery.total_cycles.mean") > 0
        assert check_sequential_consistency(result.history).ok


# ---------------------------------------------------------------------------
# Distributed topology: range-arbiter and G-arbiter crashes
# ---------------------------------------------------------------------------
def distributed_config(seed=0, num_dirs=4):
    from dataclasses import replace

    cfg = replace(bsc_dypvt(seed=seed), num_directories=num_dirs)
    return cfg.with_bulksc(arbiter_topology=ArbiterTopology.DISTRIBUTED).validate()


class TestDistributedCrash:
    @pytest.mark.parametrize("target", ["arbiter0", "arbiter2"])
    def test_range_arbiter_crash_preserves_sc(self, target):
        config = distributed_config()
        programs, space, test = build_workload(litmus_spec("MP", (1, 1)), config)
        injector = ScriptedFaultInjector(
            crash_script=crash_script_from([f"grant:1:{target}"]),
            label=f"dist/{target}",
        )
        result = run_workload(config, programs, space, fault_injector=injector)
        assert result.stat("recovery.crashes") == 1
        assert check_sequential_consistency(result.history).ok
        assert not test.forbidden(result.registers)

    def test_global_arbiter_crash_is_instantaneous(self):
        """Losing the W cache costs round trips, never a degraded phase."""
        config = distributed_config()
        programs, space, _ = build_workload(litmus_spec("SB", (1, 1)), config)
        injector = ScriptedFaultInjector(
            crash_script=crash_script_from(["commit-request:1:global"]),
            label="dist/global",
        )
        result = run_workload(config, programs, space, fault_injector=injector)
        assert result.stat("recovery.global_crashes") == 1
        assert result.stat("recovery.crashes") == 0
        assert check_sequential_consistency(result.history).ok


# ---------------------------------------------------------------------------
# Random (plan-driven) crashes stay deterministic per seed
# ---------------------------------------------------------------------------
class TestRandomCrashPlan:
    def test_arbiter_crash_plan_is_known(self):
        plan = FaultPlan.parse("arbiter-crash")
        assert plan.active
        (spec,) = plan.specs
        assert spec.kind.value == "crash"

    def _run(self, seed):
        config = bsc_dypvt(seed=0)
        programs, space, _ = build_workload(litmus_spec("MP", (1, 60)), config)
        injector = FaultInjector(
            FaultPlan.parse("arbiter-crash", rate=0.05), seed=seed, label="rng"
        )
        result = run_workload(config, programs, space, fault_injector=injector)
        return result.cycles, dict(result.stats), injector.crashes_fired

    def test_same_seed_same_schedule(self):
        assert self._run(7) == self._run(7)


# ---------------------------------------------------------------------------
# Record/replay of crash traces (schema v2)
# ---------------------------------------------------------------------------
class TestCrashReplay:
    def test_crash_trace_replays_without_divergence(self):
        run = record_run(
            spec=litmus_spec("MP", (1, 1)),
            config_name="BSCdypvt",
            seed=0,
            crashes=["grant:1:arbiter0"],
        )
        assert run.trace.header["crashes"] == ["grant:1:arbiter0"]
        kinds = {r.ev for r in run.trace.records}
        assert {"arb.crash", "arb.reconstruct", "arb.recovered"} <= kinds
        result = replay_trace(run.trace)
        assert result.ok, result.describe()

    def test_v1_traces_still_accepted(self):
        run = record_run(spec=litmus_spec("SB", (1, 1)), seed=0)
        run.trace.header["version"] = 1
        run.trace.validate()  # must not raise

    def test_future_versions_rejected(self):
        run = record_run(spec=litmus_spec("SB", (1, 1)), seed=0)
        run.trace.header["version"] = 3
        with pytest.raises(TraceValidationError):
            run.trace.validate()


# ---------------------------------------------------------------------------
# Chaos integration + exit-code contract (satellite)
# ---------------------------------------------------------------------------
def _report(**run_kwargs):
    report = ChaosReport(
        seed=0,
        workload="litmus",
        config_name="BSCdypvt",
        plan_description="drop",
        retries_enabled=True,
    )
    if run_kwargs:
        report.runs.append(ChaosRunRecord(name="r", seed=0, **run_kwargs))
    return report


class TestChaosExitCodes:
    def test_all_certified_is_zero(self):
        assert _chaos_exit_code(_report(sc_certified=True)) == 0

    def test_sc_violation_is_one(self):
        assert _chaos_exit_code(_report(sc_certified=False)) == 1

    def test_typed_error_is_three(self):
        report = _report(error="CommitTimeoutError: stuck")
        assert _chaos_exit_code(report) == 3

    def test_livelock_is_four(self):
        report = _report(error="LivelockError: no forward progress")
        assert _chaos_exit_code(report) == 4

    def test_crash_unrecovered_is_five(self):
        report = _report(error="RecoveryError: arbiter0 never recovered")
        assert _chaos_exit_code(report) == 5

    def test_chaos_campaign_with_scripted_crash_certifies(self):
        report = run_chaos(
            seed=0,
            faults="drop",
            quick=True,
            crashes=("grant:1:arbiter0",),
        )
        assert report.all_certified
        assert report.total_crashes == len(report.runs)
        assert report.crashes_spelling == ("grant:1:arbiter0",)
        assert all(r.recovery_cycles > 0 for r in report.runs)


# ---------------------------------------------------------------------------
# DirBDM reconciliation after a crash
# ---------------------------------------------------------------------------
class TestDirBDMReconcile:
    def test_dead_commit_disables_are_dropped(self):
        dirbdm = DirBDM(DirectoryModule(0, num_processors=8))
        dirbdm.disable_reads(1, sig(10))
        dirbdm.disable_reads(2, sig(20))
        assert dirbdm.reconcile_recovery({2}) == 1
        assert not dirbdm.is_read_disabled(10)
        assert dirbdm.is_read_disabled(20)
        assert dirbdm.stats.value("dirbdm.recovery_released_disables") == 1

    def test_noop_when_all_live(self):
        dirbdm = DirBDM(DirectoryModule(0, num_processors=8))
        dirbdm.disable_reads(1, sig(10))
        assert dirbdm.reconcile_recovery({1}) == 0
        assert dirbdm.is_read_disabled(10)


# ---------------------------------------------------------------------------
# Back-to-back crashes: a crash during RECONSTRUCTING must either
# complete recovery under the newer epoch or raise RecoveryError —
# never wedge the arbiter (or the run) in a dead mode.
# ---------------------------------------------------------------------------
class TestBackToBackCrashes:
    def test_crash_mid_reconstruction_supersedes_cleanly(self, arbiter):
        arbiter.admit(1, 0, sig(10), 0.0)
        arbiter.crash(1.0)
        arbiter.begin_reconstruction(2.0)
        arbiter.readmit(1, 0, sig(10), 2.0)
        # Second crash lands before the first reconstruction drains.
        dropped = arbiter.crash(3.0)
        assert dropped == 1  # the readmitted W dies with the epoch
        assert arbiter.mode is ArbiterMode.DOWN
        assert arbiter.epoch == 3
        # The newer epoch still walks the full recovery state machine.
        recovered = []
        arbiter.on_recovered = recovered.append
        arbiter.begin_reconstruction(4.0)
        arbiter.finish_reconstruction_if_drained(5.0)
        assert arbiter.mode is ArbiterMode.NORMAL
        assert recovered == [5.0]

    def test_finish_does_not_fire_while_readmitted_pending(self, arbiter):
        arbiter.crash(0.0)
        arbiter.begin_reconstruction(1.0)
        arbiter.readmit(7, 0, sig(10), 1.0)
        recovered = []
        arbiter.on_recovered = recovered.append
        arbiter.finish_reconstruction_if_drained(2.0)
        assert arbiter.mode is ArbiterMode.RECONSTRUCTING
        assert recovered == []
        arbiter.release(7, 3.0)
        assert arbiter.mode is ArbiterMode.NORMAL
        assert recovered == [3.0]

    def test_scripted_back_to_back_crashes_never_hang(self):
        """Two scripted crashes in one run: recover-or-RecoveryError.

        Returning at all is the no-hang half of the contract (a wedged
        recovery would trip the pytest timeout); the assertion is the
        other half — the second crash either re-recovers and certifies
        or surfaces as the watchdog's typed RecoveryError, never as an
        untyped failure or an uncertified silent pass.
        """
        report = run_chaos(
            seed=0,
            faults="drop",
            quick=True,
            crashes=("grant:1:arbiter0", "grant:2:arbiter0"),
        )
        if report.first_error is not None:
            assert report.first_error.startswith("RecoveryError")
        else:
            assert report.all_certified
            assert report.total_crashes >= len(report.runs)

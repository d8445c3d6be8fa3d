"""Tests for the fault plan / injector and the hardened commit pipeline."""

import pytest

from repro.cpu.isa import Compute, Load, Store
from repro.cpu.thread import ThreadProgram
from repro.errors import (
    CommitTimeoutError,
    ConfigError,
    FaultInducedError,
    LivelockError,
    ReproError,
    ResilienceError,
    SimulationError,
)
from repro.engine.simulator import Simulator
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    KNOWN_FAULTS,
    FaultKind,
    FaultPlan,
    FaultPoint,
)
from repro.memory.address import AddressMap, AddressSpace
from repro.params import bsc_dypvt
from repro.system import run_workload


class TestFaultPlan:
    def test_parse_basic(self):
        plan = FaultPlan.parse("drop,delay,dup")
        assert plan.active
        assert [s.name for s in plan.specs] == ["drop", "delay", "dup"]

    def test_parse_dedupes_and_skips_blanks(self):
        plan = FaultPlan.parse("drop, drop, ,delay")
        assert [s.name for s in plan.specs] == ["drop", "delay"]

    def test_parse_unknown_fault(self):
        with pytest.raises(ConfigError, match="unknown fault 'gamma-ray'"):
            FaultPlan.parse("gamma-ray")

    def test_rate_override_spares_kill_acks(self):
        plan = FaultPlan.parse("drop,kill-acks", rate=0.5)
        by_name = {s.name: s for s in plan.specs}
        assert by_name["drop"].rate == 0.5
        assert by_name["kill-acks"].rate == 1.0

    def test_kill_acks_targets_only_acks(self):
        (spec,) = FaultPlan.parse("kill-acks").specs
        assert spec.kind is FaultKind.DROP
        assert spec.points == frozenset({FaultPoint.ACK})

    def test_none_plan_inactive(self):
        assert not FaultPlan.none().active

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigError, match="rate"):
            FaultPlan.parse("drop", rate=1.5)

    def test_known_faults_all_parse(self):
        plan = FaultPlan.parse(",".join(KNOWN_FAULTS))
        assert len(plan.specs) == len(KNOWN_FAULTS)


class TestInjectorPassthrough:
    """An inactive injector must be indistinguishable from direct calls."""

    def test_sync_delivery(self):
        injector = FaultInjector()
        hits = []
        injector.deliver(FaultPoint.GRANT, lambda: hits.append(1), delay=0.0)
        assert hits == [1]

    def test_delayed_delivery_uses_simulator(self):
        sim = Simulator()
        injector = FaultInjector()
        injector.bind(sim)
        hits = []
        injector.deliver(FaultPoint.ACK, lambda: hits.append(sim.now), delay=13.0)
        assert hits == []
        sim.run()
        assert hits == [13.0]

    def test_no_trace_when_inactive(self):
        injector = FaultInjector()
        injector.deliver(FaultPoint.ACK, lambda: None)
        assert injector.total_injected == 0
        assert injector.summary() == "no faults injected"


class TestInjectorFaults:
    def _injector(self, spelling, seed=0, rate=None):
        sim = Simulator()
        injector = FaultInjector(FaultPlan.parse(spelling, rate=rate), seed=seed)
        injector.bind(sim)
        return sim, injector

    def test_drop_rate_one_loses_everything(self):
        sim, injector = self._injector("drop", rate=1.0)
        hits = []
        for _ in range(5):
            injector.deliver(FaultPoint.GRANT, lambda: hits.append(1), delay=1.0)
        sim.run()
        assert hits == []
        assert injector.counts == {"drop": 5}
        assert all(r.fault == "drop" for r in injector.trace)

    def test_delay_rate_one_postpones(self):
        sim, injector = self._injector("delay", rate=1.0)
        hits = []
        injector.deliver(FaultPoint.ACK, lambda: hits.append(sim.now), delay=10.0)
        sim.run()
        (when,) = hits
        spec = injector.plan.specs[0]
        assert 10.0 + spec.min_delay <= when <= 10.0 + spec.max_delay

    def test_dup_rate_one_delivers_twice(self):
        sim, injector = self._injector("dup", rate=1.0)
        hits = []
        injector.deliver(FaultPoint.INVALIDATION, lambda: hits.append(sim.now), delay=5.0)
        sim.run()
        assert len(hits) == 2
        assert hits[0] < hits[1]

    def test_kill_acks_only_hits_ack_point(self):
        sim, injector = self._injector("kill-acks")
        hits = []
        injector.deliver(FaultPoint.GRANT, lambda: hits.append("grant"), delay=1.0)
        injector.deliver(FaultPoint.ACK, lambda: hits.append("ack"), delay=1.0)
        sim.run()
        assert hits == ["grant"]
        assert injector.counts == {"kill-acks": 1}

    def test_deterministic_per_seed(self):
        outcomes = []
        for _ in range(2):
            sim, injector = self._injector("drop,delay,dup", seed=42)
            hits = []
            for i in range(200):
                injector.deliver(
                    FaultPoint.COMMIT_REQUEST, lambda i=i: hits.append(i), delay=2.0
                )
            sim.run()
            outcomes.append((tuple(hits), dict(injector.counts)))
        assert outcomes[0] == outcomes[1]

    def test_different_labels_differ(self):
        _, a = self._injector("drop", seed=1)
        sim = Simulator()
        b = FaultInjector(FaultPlan.parse("drop"), seed=1, label="other")
        b.bind(sim)
        rolls_a = [a.rng.random() for _ in range(8)]
        rolls_b = [b.rng.random() for _ in range(8)]
        assert rolls_a != rolls_b

    def test_storm_and_squash_selection(self):
        _, injector = self._injector("storm,squash", rate=1.0)
        storm = injector.storm_procs(8, committer=3)
        assert sorted(storm) == [0, 1, 2, 4, 5, 6, 7]
        (victim,) = injector.squash_victims(8, committer=2)
        assert victim != 2 and 0 <= victim < 8
        assert injector.counts == {"storm": 1, "squash": 1}

    def test_storm_noop_without_spec(self):
        _, injector = self._injector("drop")
        assert injector.storm_procs(8, committer=0) == []
        assert injector.squash_victims(8, committer=0) == []


def _two_thread_workload():
    """A tiny true-sharing workload that must exercise invalidations."""
    config = bsc_dypvt(seed=0)
    space = AddressSpace(
        AddressMap(config.memory.words_per_line, config.num_directories)
    )
    x = space.allocate("x", config.memory.words_per_line).start_word
    y = space.allocate("y", config.memory.words_per_line).start_word
    programs = [
        ThreadProgram(
            [Store(x, 1), Load("r1", y), Compute(5), Store(x, 2), Load("r2", y)],
            name="t0",
        ),
        ThreadProgram(
            [Store(y, 1), Load("r1", x), Compute(5), Store(y, 2), Load("r2", x)],
            name="t1",
        ),
    ]
    return config, programs, space


class TestHardenedCommitPipeline:
    def test_fault_free_run_unchanged_with_injector(self):
        """A machine with an inactive injector is bit-identical to none."""
        config, programs, space = _two_thread_workload()
        base = run_workload(config, programs, space)
        config2, programs2, space2 = _two_thread_workload()
        injected = run_workload(
            config2, programs2, space2, fault_injector=FaultInjector()
        )
        assert base.cycles == injected.cycles
        assert base.stats == injected.stats
        assert base.registers == injected.registers

    def test_total_request_loss_without_retries_fails_typed(self):
        config, programs, space = _two_thread_workload()
        config = config.with_resilience(retries_enabled=False)
        injector = FaultInjector(FaultPlan.parse("drop", rate=1.0), seed=0)
        with pytest.raises(FaultInducedError, match="retries disabled"):
            run_workload(config, programs, space, fault_injector=injector)

    def test_total_request_loss_with_retries_times_out(self):
        config, programs, space = _two_thread_workload()
        config = config.with_resilience(
            max_commit_retries=3, retry_backoff_cap=500
        )
        injector = FaultInjector(FaultPlan.parse("drop", rate=1.0), seed=0)
        with pytest.raises(CommitTimeoutError, match="after 3 retries") as exc_info:
            run_workload(config, programs, space, fault_injector=injector)
        # The error is diagnosable: it names the fault and carries a trace.
        assert "drop" in str(exc_info.value)
        assert exc_info.value.fault_trace
        assert exc_info.value.fault_trace[0].fault == "drop"

    def test_moderate_drops_recovered_by_retries(self):
        config, programs, space = _two_thread_workload()
        injector = FaultInjector(FaultPlan.parse("drop", rate=0.3), seed=5)
        result = run_workload(config, programs, space, fault_injector=injector)
        # Something was actually dropped, and the pipeline recovered.
        assert injector.counts.get("drop", 0) > 0
        assert result.stats["commit.completed"] == result.stats["commit.grants"]

    def test_error_hierarchy(self):
        assert issubclass(CommitTimeoutError, ResilienceError)
        assert issubclass(FaultInducedError, ResilienceError)
        assert issubclass(ResilienceError, SimulationError)
        assert issubclass(LivelockError, SimulationError)
        assert issubclass(SimulationError, ReproError)


class TestLivelockDiagnostics:
    def test_max_events_dump_names_pending_labels(self):
        sim = Simulator()

        def ping():
            sim.after(1.0, ping, label="ping42.loop")
            sim.after(1.0, lambda: None, label="noise7")

        sim.after(1.0, ping, label="ping42.loop")
        with pytest.raises(LivelockError) as exc_info:
            sim.run(max_events=50)
        message = str(exc_info.value)
        assert "max_events=50" in message
        assert "ping#.loop" in message  # digits normalized for grouping
        assert "pending events" in message

    def test_diagnostic_providers_included(self):
        sim = Simulator()

        def loop():
            sim.after(1.0, loop, label="x")

        sim.after(1.0, loop, label="x")
        with pytest.raises(LivelockError, match="quite stuck"):
            sim.run(max_events=10, diagnostics=[lambda: "component: quite stuck"])

    def test_failing_provider_does_not_mask_abort(self):
        sim = Simulator()

        def loop():
            sim.after(1.0, loop, label="x")

        sim.after(1.0, loop, label="x")
        with pytest.raises(LivelockError, match="diagnostic provider failed"):
            sim.run(max_events=10, diagnostics=[lambda: 1 / 0])

    def test_machine_run_reports_driver_state(self):
        config, programs, space = _two_thread_workload()
        with pytest.raises(LivelockError, match="per-driver state") as info:
            run_workload(config, programs, space, max_events=5)
        dump = str(info.value)
        assert (
            "\n  proc0: running commits=0 squashes=0 fifo=0 arbitrating=False\n"
            in dump
        )
        assert (
            "\n  proc1: blocked (finish) commits=0 squashes=0 fifo=0"
            " arbitrating=True\n" in dump
        )

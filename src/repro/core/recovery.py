"""Arbiter crash recovery: epoch failover with reconstruction.

BulkSC's arbiter is the single serialization point of the machine — every
grant depends on the set of in-flight W signatures it holds — so an
arbiter crash mid-commit is the availability story's hardest case.  The
saving property (after Ekström & Haridi's fault-tolerant SC DSM) is that
the serialization state is *reconstructible from the survivors*: every
in-flight W signature still lives in the committing processor's BDM until
its acks complete, so a fresh incarnation can rebuild its W-list exactly
by re-collection.

The :class:`ArbiterRecoveryManager` drives the failover state machine for
each crashable target (each range arbiter of the machine's
:class:`~repro.core.distributed_arbiter.DistributedArbiter` front end, or,
when there is more than one range, the G-arbiter's W cache):

1. **Crash** (``arbiter-crash`` fault): the incarnation's W-list is
   dropped, its epoch is bumped, and it goes DOWN — every request is
   denied, so no grant can be issued against the incomplete list.
   Grants already in flight carry the dead epoch in their lease and are
   rejected at the processor; their releases are tolerated.
2. **Reconstruct** (after ``resilience.recovery_delay_cycles``): the new
   epoch polls the commit engine's in-flight transactions — the model's
   stand-in for asking each processor about its outstanding
   CommitRequest/BDM state — re-admits every surviving admitted W, and
   re-issues grants whose messages died with the old epoch, all under the
   new lease.  Service is *serial* (one commit at a time) until every
   re-admitted survivor drains.
3. **Recovered**: the re-admitted set drained; full overlapped commit
   resumes.  Latency lands in ``recovery.outage_cycles`` (crash →
   reconstruct), ``recovery.degraded_cycles`` (reconstruct → normal) and
   ``recovery.total_cycles``.

A recovery watchdog (``resilience.recovery_watchdog_cycles``) turns a
wedged recovery into a diagnosable
:class:`~repro.errors.RecoveryError` instead of a livelock.

Every phase transition is published on the machine's chunk-lifecycle
event stream (:meth:`repro.system.Machine.subscribe`) as an
``arb.crash`` / ``arb.reconstruct`` / ``arb.recovered`` event carrying a
:class:`RecoveryEvent` — the replay recorder turns these into schema-v2
trace records so a crashed run replays to the identical recovery
schedule.

The G-arbiter is special: its W cache is pure acceleration state, so its
"recovery" is instantaneous — crash and recovered are emitted in the
same cycle and no reconstruct phase runs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.arbiter import Arbiter, ArbiterMode
from repro.core.commit import TxnPhase
from repro.errors import ConfigError, RecoveryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributed_arbiter import DistributedArbiter
    from repro.system import Machine


@dataclass(frozen=True)
class RecoveryEvent:
    """One phase transition of the failover state machine."""

    time: float
    #: ``arb.crash`` | ``arb.reconstruct`` | ``arb.recovered`` — these
    #: spellings are the replay-trace record kinds (schema v2).
    kind: str
    target: str
    #: The epoch *after* the transition (the new incarnation's number).
    epoch: int
    data: Dict[str, object] = field(default_factory=dict)


class ArbiterRecoveryManager:
    """Owns crash application and recovery scheduling for one machine.

    The targets are the front end's range arbiters, ``arbiter0`` …
    ``arbiter{N-1}``, plus ``global`` (the G-arbiter) when there is more
    than one range.  A central machine is the one-range case, so its only
    target is ``arbiter0``.
    """

    def __init__(self, machine: "Machine"):
        #: Weak: the machine owns the manager, and the components it
        #: drives call back into it (the injector's ``crash_handler``,
        #: each range arbiter's ``on_recovered``), so it reaches them
        #: through the machine.  Crashes and recoveries are rare events.
        self.machine = weakref.proxy(machine)
        self.stats = machine.stats
        self.resilience = machine.config.bulksc.resilience
        self._crash_time: Dict[str, float] = {}
        self._reconstruct_time: Dict[str, float] = {}
        for target in self.crash_targets():
            arb = self._range_arbiter(target)
            if arb is not None:
                arb.on_recovered = (
                    lambda now, t=target: self._on_recovered(t, now)
                )

    @property
    def arbiter(self) -> "DistributedArbiter":
        """The machine's arbiter front end."""
        return self.machine.arbiter

    # ------------------------------------------------------------------
    def crash_targets(self) -> List[str]:
        """Names the injector may pick for a random arbiter crash."""
        num_ranges = self.arbiter.num_ranges
        names = [f"arbiter{i}" for i in range(num_ranges)]
        return names + ["global"] if num_ranges > 1 else names

    def _range_arbiter(self, target: str) -> Optional[Arbiter]:
        """Resolve a target name; ``None`` for the (stateless) G-arbiter."""
        num_ranges = self.arbiter.num_ranges
        if target == "global":
            if num_ranges == 1:
                raise ConfigError(
                    "crash target 'global' needs more than one arbiter range"
                )
            return None
        if not target.startswith("arbiter"):
            raise ConfigError(f"unknown crash target {target!r}")
        try:
            index = int(target[len("arbiter"):])
        except ValueError:
            raise ConfigError(f"unknown crash target {target!r}") from None
        if not 0 <= index < num_ranges:
            raise ConfigError(
                f"crash target {target!r} out of range "
                f"(have {num_ranges} range arbiters)"
            )
        return self.arbiter.arbiters[index]

    # ------------------------------------------------------------------
    def crash(self, target: str) -> bool:
        """Apply a crash-stop to ``target`` and schedule its recovery.

        This is the injector's ``crash_handler``; returns True when the
        crash was applied (always, unless the target is already DOWN —
        re-crashing a corpse is a no-op so scripted sweeps stay simple).
        """
        sim = self.machine.sim
        now = sim.now
        arb = self._range_arbiter(target)
        if arb is None:
            dropped = self.arbiter.g_arbiter.crash()
            self.stats.bump("recovery.global_crashes")
            epoch = 0  # the cache has no incarnation number
            self._emit(RecoveryEvent(now, "arb.crash", target, epoch,
                                     {"dropped_w": dropped}))
            self._emit(RecoveryEvent(now, "arb.recovered", target, epoch))
            return True
        if arb.mode is not ArbiterMode.NORMAL:
            return False
        dropped = arb.crash(now)
        epoch = arb.epoch
        self.stats.bump("recovery.crashes")
        self._crash_time[target] = now
        self._emit(RecoveryEvent(now, "arb.crash", target, epoch,
                                 {"dropped_w": dropped}))
        sim.after(
            self.resilience.recovery_delay_cycles,
            lambda: self._reconstruct(target, epoch),
            label=f"recovery.{target}.reconstruct",
        )
        watchdog = self.resilience.recovery_watchdog_cycles
        if watchdog > 0:
            sim.after(
                watchdog,
                lambda: self._watchdog(target, epoch),
                label=f"recovery.{target}.watchdog",
            )
        return True

    # ------------------------------------------------------------------
    def _reconstruct(self, target: str, epoch: int) -> None:
        """The new epoch re-collects surviving in-flight commits."""
        arb = self._range_arbiter(target)
        if arb is None or arb.epoch != epoch or arb.mode is not ArbiterMode.DOWN:
            return  # superseded by a newer crash of the same target
        sim = self.machine.sim
        now = sim.now
        engine = self.machine.commit_engine
        arb.begin_reconstruction(now)
        readmitted = 0
        resent = 0
        for txn in list(engine.inflight_transactions()):
            if arb.mode is not ArbiterMode.RECONSTRUCTING:
                # A nested crash (fired by a re-sent grant's delivery)
                # superseded this reconstruction mid-walk.
                return
            if txn.phase not in (TxnPhase.GRANT_SENT, TxnPhase.ACKS_PENDING):
                continue
            if arb.index not in txn.ranges:
                continue
            if txn.admitted:
                arb.readmit(txn.commit_id, txn.chunk.proc, txn.chunk.w_sig, now)
                readmitted += 1
            resent += engine.recovery_renew(txn)
        self.stats.bump("recovery.readmitted_commits", readmitted)
        live = {txn.commit_id for txn in engine.inflight_transactions()}
        for dirbdm in self.machine.dirbdms:
            dirbdm.reconcile_recovery(live)
        self._reconstruct_time[target] = now
        crash_at = self._crash_time.get(target, now)
        self.stats.distribution("recovery.outage_cycles").sample(now - crash_at)
        self._emit(RecoveryEvent(now, "arb.reconstruct", target, arb.epoch,
                                 {"readmitted": readmitted,
                                  "grants_resent": resent}))
        # Nothing to drain → recovery completes this cycle.
        arb.finish_reconstruction_if_drained(now)

    def _on_recovered(self, target: str, now: float) -> None:
        crash_at = self._crash_time.get(target, now)
        reconstruct_at = self._reconstruct_time.get(target, now)
        self.stats.distribution("recovery.degraded_cycles").sample(
            now - reconstruct_at
        )
        self.stats.distribution("recovery.total_cycles").sample(now - crash_at)
        arb = self._range_arbiter(target)
        epoch = arb.epoch if arb is not None else 0
        self._emit(RecoveryEvent(now, "arb.recovered", target, epoch))

    def _watchdog(self, target: str, epoch: int) -> None:
        arb = self._range_arbiter(target)
        if arb is None or arb.epoch != epoch or arb.mode is ArbiterMode.NORMAL:
            return
        injector = self.machine.fault_injector
        raise RecoveryError(
            f"{target} failed to recover within "
            f"{self.resilience.recovery_watchdog_cycles} cycles of the "
            f"epoch-{epoch} crash (mode {arb.mode.value}); injected faults: "
            f"{injector.summary()}",
            fault_trace=injector.trace,
        )

    # ------------------------------------------------------------------
    def _emit(self, event: RecoveryEvent) -> None:
        for subscriber in self.machine.subscribers:
            subscriber(event.kind, None, event)

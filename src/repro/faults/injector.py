"""Seeded fault injector for the chunk-commit pipeline.

The :class:`FaultInjector` sits between the protocol engines and the
simulator's scheduler.  Hardened code paths route every injectable
message leg through :meth:`FaultInjector.deliver` instead of calling
``sim.after`` directly; the injector then either passes the delivery
through untouched (the fault-free case is bit-identical to direct
scheduling) or perturbs it according to the :class:`~repro.faults.plan.FaultPlan`:
drop it, deliver it late, deliver it twice, or jitter its latency so
same-cycle messages cross.

Protocol-level faults that are not single messages — signature
false-positive storms and spurious squashes — are exposed as query
methods (:meth:`storm_procs`, :meth:`squash_victims`) that the commit
engine consults at the natural decision points.

Every injectable decision point is *numbered*: :meth:`deliver` bumps
``deliver_seq`` on every call (faulted or not), and the storm/squash
queries bump their own counters.  Injected faults record the sequence
number they fired at plus their drawn parameters, which makes a fault
schedule a pure data object: an injector given a ``script`` follows an
explicit ``{seq: fault}`` schedule instead of drawing, through the same
code that applies a drawn fault — the mechanism behind trace
minimization and minimized-trace replay in :mod:`repro.replay`.

Every injected fault is appended to :attr:`trace` as a
:class:`FaultRecord`; resilience errors carry this trace so a failing
chaos run names exactly what was done to it.  Each record is also
published as a ``fault`` event on the owning machine's chunk-lifecycle
event stream (:meth:`repro.system.Machine.subscribe`), which is how the
replay recorder sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.rng import DeterministicRng
from repro.engine.simulator import Simulator
from repro.faults.plan import (
    MESSAGE_KINDS,
    FaultKind,
    FaultPlan,
    FaultPoint,
    FaultSpec,
)

#: Keep the fault trace bounded; counts are always exact.
_TRACE_CAP = 5000

#: Random (plan-driven) arbiter crashes per run are capped so a crash
#: storm cannot outpace recovery forever — the recovery watchdog turns a
#: genuinely unrecoverable run into a diagnosable RecoveryError instead.
_MAX_RANDOM_CRASHES = 5


def _find(specs, kind: FaultKind) -> Optional[FaultSpec]:
    """The first spec of ``kind``, or ``None``."""
    for spec in specs:
        if spec.kind is kind:
            return spec
    return None


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault: when, what, and to which message.

    ``seq`` numbers the injection point within its channel (message
    deliveries, storm queries, or squash queries — see
    :attr:`channel`), and ``extra``/``victims`` hold the drawn
    parameters, so a recorded fault can be re-applied verbatim by a
    scripted :class:`FaultInjector`.
    """

    time: float
    fault: str
    point: Optional[str]
    label: str
    detail: str = ""
    #: Canonical fault kind (``drop``/``delay``/``dup``/``reorder``/
    #: ``storm``/``squash``) — ``fault`` may be an alias like
    #: ``kill-acks``.
    kind: str = ""
    #: Sequence number within the channel (-1 for legacy records).
    seq: int = -1
    #: Drawn latency parameter: extra delay (delay/dup) or the absolute
    #: perturbed delay (reorder).
    extra: float = 0.0
    #: Storm/squash victims.
    victims: Tuple[int, ...] = ()

    @property
    def channel(self) -> str:
        """Which counter ``seq`` indexes: deliver, storm, squash, or crash.

        Crash records number per-point occurrences (``seq`` is the Nth
        delivery at ``point``), not the global deliver counter.
        """
        if self.kind in ("storm", "squash", "crash"):
            return self.kind
        return "deliver"

    def trace_data(self) -> Dict[str, object]:
        """The ``data`` of this fault's replay-trace ``fault`` record."""
        return {
            "fault": self.fault,
            "kind": self.kind,
            "channel": self.channel,
            "seq": self.seq,
            "point": self.point,
            "label": self.label,
            "detail": self.detail,
            "extra": self.extra,
            "victims": list(self.victims),
        }

    def render(self) -> str:
        where = f"@{self.point}" if self.point else ""
        detail = f" ({self.detail})" if self.detail else ""
        return f"[{self.time:>10.1f}] {self.fault}{where} on {self.label!r}{detail}"


@dataclass
class FaultInjector:
    """Applies a :class:`FaultPlan` to message deliveries, deterministically.

    A ``(plan, seed, label)`` triple fully determines the fault schedule:
    the injector forks its own RNG sub-stream so consuming faults never
    perturbs workload generation or backoff jitter elsewhere.

    Given a ``script`` — the trace-header ``fault_script`` form, ``{"deliver":
    {seq: {"kind", "extra"}}, "storm"/"squash": {seq: victims}, "crash":
    {"POINT:OCC": target}}`` with string keys — the injector draws nothing
    and ignores ``plan``: it applies exactly the scripted faults at the
    numbered injection points, so a schedule lifted from a recorded run's
    fault records re-applies the *same* faults to the *same* protocol
    messages.  A scripted injector is always :attr:`active`,
    even with an empty script, so watchdogs arm as in the run it came
    from.
    """

    plan: FaultPlan = field(default_factory=FaultPlan.none)
    seed: int = 0
    label: str = "machine"
    script: Optional[dict] = None

    def __post_init__(self):
        self.rng = DeterministicRng(self.seed).fork(f"fault-injector/{self.label}")
        self.sim: Optional[Simulator] = None
        self.trace: List[FaultRecord] = []
        self.counts: Dict[str, int] = {}
        self._trace_overflow = 0
        #: Sequence counters, one per injection channel.  Bumped on every
        #: call — faulted or not — so two executions of the same workload
        #: number their injection points identically.
        self.deliver_seq = 0
        self.storm_seq = 0
        self.squash_seq = 0
        #: The owning machine's event-stream subscribers (set by
        #: :class:`~repro.system.Machine`): every FaultRecord is published
        #: to them as a ``fault`` event, before the trace cap applies.
        self.subscribers: List[Callable[..., None]] = []
        specs = self.plan.specs if self.script is None else ()
        self._message_specs: List[FaultSpec] = [
            s for s in specs if s.kind in MESSAGE_KINDS
        ]
        self._storm_spec = _find(specs, FaultKind.STORM)
        self._squash_spec = _find(specs, FaultKind.SQUASH)
        self._crash_spec = _find(specs, FaultKind.CRASH)
        #: Per-point delivery counters — the crash channel's sequence
        #: space.  Counting per point (not globally) keeps scripted crash
        #: positions meaningful across config changes that shift message
        #: interleavings.
        self._point_occurrence: Dict[str, int] = {}
        #: Scripted crashes: ``{(point_value, occurrence): target}``.
        self.crash_script: Dict[Tuple[str, int], str] = {}
        #: The script's message, storm and squash channels (``None``
        #: when unscripted), keyed by sequence number.
        self._deliver_script: Optional[Dict[int, Tuple[FaultKind, float]]] = None
        self._storm_script: Optional[Dict[int, Tuple[int, ...]]] = None
        self._squash_script: Optional[Dict[int, Tuple[int, ...]]] = None
        if self.script is not None:
            script = self.script
            self._deliver_script = {
                int(seq): (FaultKind(entry["kind"]), float(entry.get("extra", 0.0)))
                for seq, entry in script.get("deliver", {}).items()
            }
            self._storm_script = {
                int(seq): tuple(victims)
                for seq, victims in script.get("storm", {}).items()
            }
            self._squash_script = {
                int(seq): tuple(victims)
                for seq, victims in script.get("squash", {}).items()
            }
            for key, target in script.get("crash", {}).items():
                point, occurrence = key.rsplit(":", 1)
                self.crash_script[(point, int(occurrence))] = target
        #: Wired by the machine: called with a target name, returns True
        #: if the crash was actually applied.
        self.crash_handler: Optional[Callable[[str], bool]] = None
        #: Valid targets for plan-driven (random) crashes.
        self.crash_targets: List[str] = []
        self.crashes_fired = 0

    @property
    def active(self) -> bool:
        """True when any fault can ever fire (hardened watchdogs arm on this)."""
        return self.plan.active or bool(self.crash_script) or self.script is not None

    def bind(self, sim: Simulator) -> None:
        self.sim = sim

    # ------------------------------------------------------------------
    # Message-leg injection
    # ------------------------------------------------------------------
    def deliver(
        self,
        point: FaultPoint,
        action: Callable[[], object],
        delay: float = 0.0,
        label: str = "",
    ) -> None:
        """Deliver a protocol message, possibly perturbed.

        Fault-free behaviour is identical to the un-instrumented code:
        ``delay <= 0`` invokes ``action`` synchronously, anything else is
        ``sim.after(delay, action, label=label)``.
        """
        self.deliver_seq += 1
        self._crash_check(point, label)
        sim = self.sim
        if sim is not None:
            if self._message_specs:
                for spec in self._message_specs:
                    if point not in spec.points or self.rng.random() >= spec.rate:
                        continue
                    self._apply(
                        spec.name, spec.kind, self._draw(spec, delay), "",
                        point, action, delay, label, sim,
                    )
                    return
            elif self._deliver_script:
                scripted = self._deliver_script.get(self.deliver_seq)
                if scripted is not None:
                    kind, extra = scripted
                    self._apply(
                        kind.value, kind, extra, " (scripted)",
                        point, action, delay, label, sim,
                    )
                    return
        self._pass_through(action, delay, label)

    def _pass_through(
        self, action: Callable[[], object], delay: float, label: str
    ) -> None:
        if delay > 0:
            assert self.sim is not None, "deliver() with delay needs a bound simulator"
            self.sim.after(delay, action, label=label)
        else:
            action()

    def _draw(self, spec: FaultSpec, delay: float) -> float:
        """A drawn message fault's latency parameter (see ``FaultRecord.extra``)."""
        if spec.kind is FaultKind.DROP:
            return 0.0
        if spec.kind is FaultKind.REORDER:
            return max(0.001, delay + self.rng.uniform(-spec.max_delay, spec.max_delay))
        return self.rng.uniform(spec.min_delay, spec.max_delay)

    def _apply(
        self,
        name: str,
        kind: FaultKind,
        extra: float,
        suffix: str,
        point: FaultPoint,
        action: Callable[[], object],
        delay: float,
        label: str,
        sim: Simulator,
    ) -> None:
        """Apply one drawn or scripted message fault to this delivery."""
        seq = self.deliver_seq
        if kind is FaultKind.DROP:
            self._record(
                name, point, label, "message lost" + suffix, kind="drop", seq=seq
            )
            return
        if kind is FaultKind.DELAY:
            self._record(
                name, point, label, f"+{extra:.0f}cy{suffix}",
                kind="delay", seq=seq, extra=extra,
            )
            sim.after(delay + extra, action, label=label)
            return
        if kind is FaultKind.DUP:
            self._record(
                name, point, label, f"echo +{extra:.0f}cy{suffix}",
                kind="dup", seq=seq, extra=extra,
            )
            sim.after(max(delay, 0.001), action, label=label)
            sim.after(delay + extra, action, label=f"{label}.dup")
            return
        if kind is FaultKind.REORDER:
            self._record(
                name, point, label, f"{delay:.0f}->{extra:.0f}cy{suffix}",
                kind="reorder", seq=seq, extra=extra,
            )
            sim.after(max(0.001, extra), action, label=label)
            return
        raise AssertionError(f"unhandled message fault kind {kind}")

    # ------------------------------------------------------------------
    # Arbiter crashes
    # ------------------------------------------------------------------
    def _crash_check(self, point: FaultPoint, label: str) -> None:
        """Fire a scripted or plan-driven arbiter crash at this delivery.

        Runs *before* the message itself is handled, so a grant delivery
        that coincides with its arbiter's crash sees the post-crash epoch
        and is rejected — there is no window for a dead-epoch grant to
        land.  Per-point occurrence counters key the crash channel.
        """
        occ = self._point_occurrence.get(point.value, 0) + 1
        self._point_occurrence[point.value] = occ
        target = self.crash_script.get((point.value, occ))
        if target is None:
            spec = self._crash_spec
            if (
                spec is None
                or self.sim is None
                or self.crashes_fired >= _MAX_RANDOM_CRASHES
                or point not in spec.points
                or not self.crash_targets
                or self.rng.random() >= spec.rate
            ):
                return
            target = self.rng.choice(self.crash_targets)
        if self.crash_handler is None or not self.crash_handler(target):
            return
        self.crashes_fired += 1
        # ``detail`` carries exactly the target name so the minimizer can
        # round-trip the record back into a crash script.
        self._record(
            "arbiter-crash", point, label, target, kind="crash", seq=occ
        )

    # ------------------------------------------------------------------
    # Protocol-level faults
    # ------------------------------------------------------------------
    def storm_procs(self, num_procs: int, committer: int) -> List[int]:
        """Victims of a signature false-positive storm, or ``[]``.

        When the storm fires, the directory behaves as though address
        aliasing made *every* other processor's signatures intersect the
        committer's W — the worst case Table 1 allows — so invalidations
        fan out system-wide and the ack path is stressed.
        """
        self.storm_seq += 1
        if self._storm_spec is None and self._storm_script is None:
            return []
        return self._protocol_fault(
            FaultKind.STORM, self._storm_spec, self._storm_script,
            self.storm_seq, num_procs, committer,
        )

    def squash_victims(self, num_procs: int, committer: int) -> List[int]:
        """Processors to spuriously squash at this commit, or ``[]``."""
        self.squash_seq += 1
        if self._squash_spec is None and self._squash_script is None:
            return []
        return self._protocol_fault(
            FaultKind.SQUASH, self._squash_spec, self._squash_script,
            self.squash_seq, num_procs, committer,
        )

    def _protocol_fault(
        self,
        kind: FaultKind,
        spec: Optional[FaultSpec],
        script: Optional[Dict[int, Tuple[int, ...]]],
        seq: int,
        num_procs: int,
        committer: int,
    ) -> List[int]:
        """Draw or look up, then record, storm/squash decision ``seq``.

        A storm hits every other processor; a drawn squash hits one.
        """
        if script is not None:
            victims = tuple(
                p for p in script.get(seq, ()) if p != committer and p < num_procs
            )
            name, suffix = kind.value, " (scripted)"
        elif spec is None or num_procs <= 1 or self.rng.random() >= spec.rate:
            return []
        else:
            others = [p for p in range(num_procs) if p != committer]
            if kind is FaultKind.STORM:
                victims = tuple(others)
            else:
                victims = (self.rng.choice(others),)
            name, suffix = spec.name, ""
        if not victims:
            return []
        if kind is FaultKind.STORM:
            detail = f"{len(victims)} false positives"
        else:
            detail = "squash " + ",".join(f"P{v}" for v in victims)
        self._record(
            name, None, f"commit by P{committer}", detail + suffix,
            kind=kind.value, seq=seq, victims=victims,
        )
        return list(victims)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _record(
        self,
        fault: str,
        point: Optional[FaultPoint],
        label: str,
        detail: str,
        kind: str = "",
        seq: int = -1,
        extra: float = 0.0,
        victims: Tuple[int, ...] = (),
    ) -> None:
        self.counts[fault] = self.counts.get(fault, 0) + 1
        now = self.sim.now if self.sim is not None else 0.0
        record = FaultRecord(
            now, fault, point.value if point else None, label, detail,
            kind=kind or fault, seq=seq, extra=extra, victims=victims,
        )
        for subscriber in self.subscribers:
            subscriber("fault", None, record)
        if len(self.trace) >= _TRACE_CAP:
            self._trace_overflow += 1
            return
        self.trace.append(record)

    @property
    def total_injected(self) -> int:
        return sum(self.counts.values())

    def summary(self) -> str:
        if not self.counts:
            return "no faults injected"
        parts = [f"{name}×{n}" for name, n in sorted(self.counts.items())]
        text = ", ".join(parts)
        if self._trace_overflow:
            text += f" ({self._trace_overflow} trace records elided)"
        return text

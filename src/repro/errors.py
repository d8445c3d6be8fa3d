"""Exception hierarchy for the BulkSC reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class SimulationError(ReproError):
    """The simulation reached an internally inconsistent state."""


class DeadlockError(SimulationError):
    """The event queue drained while processors still had work to do."""


class LivelockError(SimulationError):
    """The event loop exceeded its budget; carries a diagnostic dump."""


class ProtocolError(SimulationError):
    """A coherence or commit-protocol invariant was violated."""


class ResilienceError(SimulationError):
    """A hardened protocol path gave up after its fault budget ran out.

    Raised by the commit engine's watchdogs and the driver's starvation
    watchdog.  Carries the injected-fault trace (a list of
    :class:`~repro.faults.injector.FaultRecord`) so a failing chaos run is
    diagnosable: the error names exactly which faults were injected and
    where the protocol stalled.
    """

    def __init__(self, message: str, fault_trace: object = None):
        super().__init__(message)
        self.fault_trace = list(fault_trace or [])


class CommitTimeoutError(ResilienceError):
    """A commit transaction exhausted its bounded resilience retries."""


class FaultInducedError(ResilienceError):
    """An injected fault stalled the protocol while retries were disabled."""


class StarvationError(ResilienceError):
    """A processor made no commit progress despite pre-arbitration."""


class RecoveryError(ResilienceError):
    """A crashed arbiter failed to return to normal service in time.

    Raised by the recovery watchdog when, after an injected arbiter
    crash, the new epoch never finishes reconstruction (crash-unrecovered
    — e.g. a second crash storm or a wedged reconstruct phase).  Distinct
    from :class:`CommitTimeoutError` so the chaos CLI can report
    crash-unrecovered with its own exit code.
    """


class HarnessError(ReproError):
    """The test/campaign harness itself (not the simulator) failed."""


class WorkerCrashError(HarnessError):
    """A forked worker process died mid-cell and retries were exhausted.

    Raised (or returned as a :class:`~repro.harness.parallel.CellFailure`)
    by :func:`~repro.harness.parallel.parallel_map` when a child exits
    without shipping a result — OOM-killed, segfaulted, or ``kill -9``ed
    — after the configured retry budget.  Distinct from an exception the
    cell function raised, which is deterministic and always propagates
    as itself.
    """


class CellTimeoutError(HarnessError):
    """A cell exceeded its wall-clock budget and its worker was killed.

    Campaigns record these as failed cells rather than letting one
    livelocked simulation hang the whole run.
    """


class CampaignError(HarnessError):
    """A campaign store/spec is invalid, corrupt, or used inconsistently."""


class ServiceError(ReproError):
    """The multi-process service layer failed (transport, protocol, failover).

    Raised by :mod:`repro.service` — the crash-tolerant socket deployment
    of the commit protocol — for failures of the *live* system rather
    than the simulator.  Subclasses separate what went wrong so callers
    (and the ``serve``/``service`` CLI exit codes) can tell a flaky wire
    from a fenced writer from a failed takeover.
    """


class TransportError(ServiceError):
    """A socket leg stayed unreachable after its bounded retry budget."""


class FrameError(TransportError):
    """A peer sent bytes that do not parse as a length-prefixed JSON frame."""


class RequestTimeoutError(TransportError):
    """A request exhausted its per-request timeout across every retry."""


class FailoverError(ServiceError):
    """Standby takeover could not restore arbitration service.

    The live-service analogue of :class:`RecoveryError`: reconstruction
    polls or fences failed beyond their retry budgets, so the new epoch
    never reached normal (or even serial degraded) service.
    """


class ProgramError(ReproError):
    """A thread program is malformed (bad operands, unknown ops, ...)."""


class ConsistencyViolation(ReproError):
    """An execution history failed a sequential-consistency check.

    Raised by :mod:`repro.verify` when asked to *assert* SC rather than
    merely report.  Carries the offending explanation for debugging.
    """

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness

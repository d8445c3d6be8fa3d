"""Deterministic fan-out of independent simulation cells across processes.

Sweeps, chaos campaigns, and benchmarks all reduce to the same shape:
run many *independent* (config, app, seed) cells and merge the results.
:func:`parallel_map` fans the cells over forked worker processes and
returns results **in submission order**, so a parallel sweep merges into
exactly the artifact a serial sweep produces — every cell is a full
simulation with its own seed, and cells never share mutable state.

Two constraints shape the implementation:

* Cell functions are usually closures (over a runner, a config override,
  a campaign plan) and closures cannot cross a pickle boundary.  Each
  cell therefore runs in a child forked directly from the caller —
  the closure and its item are inherited by memory snapshot, and only
  the (picklable) result crosses the pipe back.
* Where ``fork`` is unavailable (non-POSIX platforms) or parallelism is
  not requested, the same call degrades to a plain serial loop, keeping
  ``--jobs 1`` and ``--jobs N`` bit-identical by construction.

Supervision (new in the campaign runner work): because every cell is its
own OS process, the parent can detect a worker that *dies* mid-cell
(OOM-killed, segfault, ``kill -9``) and retry the cell with exponential
backoff, and it can enforce a per-cell wall-clock ``timeout`` by killing
a livelocked child.  Infra failures surface as the typed
:class:`~repro.errors.WorkerCrashError` /
:class:`~repro.errors.CellTimeoutError`, or — with
``failure_mode="return"`` — as in-slot :class:`CellFailure` sentinels so
one bad cell cannot sink a million-run campaign.

Results must be picklable: simulation cells should return slim payloads
(e.g. a :class:`~repro.system.RunResult` with ``machine=None``) rather
than live machines, whose event heaps hold lambdas.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TypeVar, Union

from repro.errors import CellTimeoutError, WorkerCrashError

T = TypeVar("T")
R = TypeVar("R")

#: Sleep before retry attempt ``n`` is ``backoff * 2**n`` seconds.
DEFAULT_BACKOFF = 0.05

# True inside a forked cell worker: nested parallel_map calls (a cell
# that itself sweeps) run serially instead of forking grandchildren.
_IN_WORKER = False


def fork_available() -> bool:
    """Whether the fork start method (required for closures) exists."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


def default_jobs() -> int:
    """A sensible worker count for ``--jobs 0`` (= auto)."""
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class CellFailure:
    """In-slot sentinel for an infra-failed cell (``failure_mode="return"``).

    Distinguishes the two non-deterministic ways a cell can fail to
    produce a result — the worker process died (``kind="crash"``) or the
    cell exceeded its wall-clock budget and was killed
    (``kind="timeout"``) — from a deterministic exception raised *by*
    the cell function, which always propagates.
    """

    index: int
    kind: str  # "crash" | "timeout"
    error: str
    attempts: int
    elapsed: float

    def to_error(self) -> Exception:
        if self.kind == "timeout":
            return CellTimeoutError(self.error)
        return WorkerCrashError(self.error)


class _CellWorker:
    """One forked child computing ``fn(item)`` for a single cell."""

    def __init__(self, context, fn: Callable, item, index: int):
        self.index = index
        self.started = time.monotonic()  # detlint: ok[DET003] — per-cell timeout clock
        self.recv, child_send = context.Pipe(duplex=False)
        self.process = context.Process(
            target=_cell_main, args=(child_send, fn, item), daemon=True
        )
        self.process.start()
        # The parent keeps only the read end; the child holds the write
        # end.  Closing our copy of the write end makes EOF detectable.
        child_send.close()

    def elapsed(self) -> float:
        return time.monotonic() - self.started  # detlint: ok[DET003] — per-cell timeout clock

    def kill(self) -> None:
        try:
            self.process.kill()
        except Exception:  # pragma: no cover - already dead
            pass
        self.process.join()
        self.recv.close()

    def finish(self):
        """Read the child's outcome after its pipe became readable.

        Returns ``(ok, payload)`` where ``ok`` is True for a result and
        False for a crash (payload is a description string).  A cell
        function's own exception is re-raised here, in the parent.
        """
        try:
            ok, payload = self.recv.recv()
        except (EOFError, OSError):
            self.process.join()
            return False, f"worker exited with code {self.process.exitcode}"
        self.process.join()
        self.recv.close()
        if ok:
            return True, payload
        raise payload  # the cell function raised: deterministic, propagate


def _cell_main(send, fn, item) -> None:
    """Child entry: run the cell, ship the outcome, exit."""
    global _IN_WORKER
    _IN_WORKER = True
    try:
        result = fn(item)
        out = (True, result)
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        try:
            out = (False, exc)
        except Exception:  # pragma: no cover - defensive
            out = (False, RuntimeError(repr(exc)))
    try:
        send.send(out)
    except Exception:
        # An unpicklable result/exception: report it as such rather
        # than dying silently (which would read as a worker crash).
        send.send((False, RuntimeError(f"unpicklable cell outcome: {out[1]!r}")))
    send.close()


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = DEFAULT_BACKOFF,
    failure_mode: str = "raise",
) -> List[Union[R, CellFailure]]:
    """Apply ``fn`` to every item, optionally across worker processes.

    Returns results in item order regardless of completion order, so the
    caller's merge is deterministic.  Falls back to a serial in-process
    loop when ``jobs <= 1`` (and no ``timeout`` is set), there are no
    items, or fork is missing.

    Args:
        fn: The cell function; exceptions it raises always propagate
            (they are deterministic bugs, not infra failures).
        items: The cells.
        jobs: Concurrent worker processes; ``0`` = one per CPU.
        timeout: Per-cell wall-clock budget in seconds; a cell that
            exceeds it is killed.  Enforced only where fork exists —
            with ``jobs <= 1`` the cells still run one at a time, each
            in its own supervised child.
        retries: How many times to re-fork a cell whose worker *died*
            (timeouts are not retried: cells are deterministic, so a
            livelocked cell would just burn another budget).
        backoff: Base of the exponential retry backoff (seconds).  Each
            retry sleeps ``backoff * 2**n`` scaled by a deterministic
            per-(cell, attempt) jitter in ``[1.0, 1.5)`` so simultaneous
            crashes do not re-fork in lockstep.
        failure_mode: ``"raise"`` propagates
            :class:`~repro.errors.WorkerCrashError` /
            :class:`~repro.errors.CellTimeoutError`; ``"return"`` puts a
            :class:`CellFailure` in the failed cell's slot instead.
    """
    if failure_mode not in ("raise", "return"):
        raise ValueError(f"unknown failure_mode {failure_mode!r}")
    work = list(items)
    if jobs == 0:
        jobs = default_jobs()
    supervised = fork_available() and not _IN_WORKER and (
        jobs > 1 or timeout is not None or retries > 0
    )
    if not work or not supervised:
        return [fn(item) for item in work]
    return _supervised_map(
        fn, work, max(1, jobs), timeout, retries, backoff, failure_mode
    )


def _supervised_map(
    fn: Callable,
    work: List,
    jobs: int,
    timeout: Optional[float],
    retries: int,
    backoff: float,
    failure_mode: str,
) -> List:
    context = multiprocessing.get_context("fork")
    results: List = [None] * len(work)
    attempts = [0] * len(work)
    pending = list(range(len(work)))  # not yet forked (FIFO)
    retry_at: List = []  # (monotonic time, index) waiting out a backoff
    running: dict = {}  # recv-connection -> _CellWorker
    failures: List[CellFailure] = []

    def settle(index: int, failure: CellFailure) -> None:
        if failure_mode == "return":
            results[index] = failure
        else:
            failures.append(failure)

    try:
        while pending or retry_at or running:
            now = time.monotonic()  # detlint: ok[DET003] — retry/timeout scheduling clock
            while retry_at and retry_at[0][0] <= now:
                pending.insert(0, retry_at.pop(0)[1])
            while pending and len(running) < jobs:
                index = pending.pop(0)
                attempts[index] += 1
                worker = _CellWorker(context, fn, work[index], index)
                running[worker.recv] = worker
            if not running:
                if retry_at:
                    time.sleep(max(0.0, retry_at[0][0] - time.monotonic()))  # detlint: ok[DET003] — retry backoff clock
                continue
            wait_for = 0.2
            if timeout is not None:
                soonest = min(w.started for w in running.values())
                wait_for = max(0.0, soonest + timeout - time.monotonic())  # detlint: ok[DET003] — per-cell timeout clock
                wait_for = min(wait_for, 0.2)
            ready = multiprocessing.connection.wait(
                list(running.keys()), timeout=wait_for
            )
            for conn in ready:
                worker = running.pop(conn)
                ok, payload = worker.finish()
                if ok:
                    results[worker.index] = payload
                    continue
                if attempts[worker.index] <= retries:
                    # Jittered exponential backoff: when one bad shard
                    # kills several workers at once, a naked 2**n would
                    # re-fork them in lockstep and they would contend
                    # (or OOM) together again.  The jitter draw is
                    # seeded per (cell, attempt), so the schedule is
                    # reproducible; cell *outcomes* never depend on it.
                    jitter_rng = random.Random(
                        (worker.index + 1) * 1_000_003 + attempts[worker.index]
                    )
                    delay = backoff * 2 ** (attempts[worker.index] - 1)
                    delay *= 1.0 + 0.5 * jitter_rng.random()
                    retry_at.append(
                        (
                            time.monotonic()  # detlint: ok[DET003] — retry backoff clock
                            + delay,
                            worker.index,
                        )
                    )
                    retry_at.sort()
                else:
                    settle(
                        worker.index,
                        CellFailure(
                            index=worker.index,
                            kind="crash",
                            error=(
                                f"cell {worker.index} worker died "
                                f"({payload}) after "
                                f"{attempts[worker.index]} attempt(s)"
                            ),
                            attempts=attempts[worker.index],
                            elapsed=worker.elapsed(),
                        ),
                    )
            if timeout is not None:
                for conn in [
                    c for c, w in running.items() if w.elapsed() > timeout
                ]:
                    worker = running.pop(conn)
                    elapsed = worker.elapsed()
                    worker.kill()
                    settle(
                        worker.index,
                        CellFailure(
                            index=worker.index,
                            kind="timeout",
                            error=(
                                f"cell {worker.index} exceeded its "
                                f"{timeout:g}s wall-clock budget "
                                f"(killed after {elapsed:.1f}s)"
                            ),
                            attempts=attempts[worker.index],
                            elapsed=elapsed,
                        ),
                    )
    finally:
        for worker in running.values():
            worker.kill()
    if failures:
        failures.sort(key=lambda f: f.index)
        raise failures[0].to_error()
    return results

"""Sweep runner: (configuration, application) grids with memoization.

Two things are shared, at two scopes:

* **Workloads, per process.**  :func:`build_app_workload` serves each
  generated application from a bounded in-process memo
  (:func:`generate_app_workload`), so every cell, runner and artifact
  that asks for the same ``(app, instructions, seed)`` on the same
  machine geometry gets the same :class:`~repro.workloads.Workload`
  object, and its compiled op streams with it.
* **Results, per runner.**  One :class:`SweepRunner` caches every
  simulation it runs, so artifacts that share a runner (Tables 3-4
  after Fig 9 in ``examples/reproduce_paper.py``) read its cells
  without re-simulating.  Results are *not* shared across runners:
  ``figure10`` and ``figure11`` build their own runners and simulate
  their cells again, including the ones another artifact already ran.

With ``jobs > 1`` a grid sweep fans its uncached cells over a worker
pool (see :mod:`repro.harness.parallel`); results merge in grid order,
so the artifact is identical to a serial sweep's.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness.parallel import CellFailure, parallel_map
from repro.params import NAMED_CONFIGS, SystemConfig
from repro.system import RunResult, run_workload
from repro.workloads.commercial import COMMERCIAL_ORDER, COMMERCIAL_PROFILES
from repro.workloads.program import Workload
from repro.workloads.splash2 import SPLASH2_ORDER, SPLASH2_PROFILES
from repro.workloads.synthetic import generate_profile_workload

SPLASH2_APPS: Tuple[str, ...] = tuple(SPLASH2_ORDER)
COMMERCIAL_APPS: Tuple[str, ...] = tuple(COMMERCIAL_ORDER)
ALL_APPS: Tuple[str, ...] = SPLASH2_APPS + COMMERCIAL_APPS

#: The configuration names of Table 2, in the paper's plotting order.
FIGURE9_CONFIGS = ("SC", "RC", "SC++", "BSCbase", "BSCdypvt", "BSCexact", "BSCstpvt")


def memo_key(
    config_name: str,
    app: str,
    instructions: int,
    seed: int,
    record_history: bool,
) -> Tuple[str, str, int, int, bool]:
    """The canonical memo key of one simulation cell.

    This tuple of primitives is the identity of a run everywhere results
    are cached or deduplicated: the :class:`SweepRunner` cache and the
    campaign store's resume logic (:mod:`repro.campaign.queue`) both key
    on it, so it must be stable across processes, pickle round-trips,
    and interpreter invocations — only plain, order-insensitive values
    belong here.
    """
    return (config_name, app, int(instructions), int(seed), bool(record_history))


def build_app_workload(
    app: str, config: SystemConfig, instructions: int, seed: int
) -> Workload:
    """The synthetic workload standing in for ``app`` on ``config``'s machine.

    The workload is shared: every call with the same app, instruction
    budget, seed, processor count, line size and directory count
    returns the same object (see :func:`generate_app_workload`).  Do not
    mutate it or allocate into its address space; copy
    ``list(workload.programs)`` to edit the thread list.
    """
    return generate_app_workload(
        app,
        config.num_processors,
        config.memory.words_per_line,
        config.num_directories,
        int(instructions),
        int(seed),
    )


@functools.lru_cache(maxsize=len(ALL_APPS))
def generate_app_workload(
    app: str,
    threads: int,
    words_per_line: int,
    num_directories: int,
    instructions: int,
    seed: int,
    /,
) -> Workload:
    """Generate ``app``'s workload, memoized per process on these arguments.

    The arguments are everything the generator reads, so they are the
    memo key; a generator change that reads another config field has to
    add it here.  The memo is an LRU of ``len(ALL_APPS)`` entries: a
    config-major sweep over every app (Figs 10 and 11) still hits.
    Sharing is safe because the result is a pure function of the key
    and runs only read it (see :func:`build_app_workload`).

    The memo is long-lived, so it is kept out of the cyclic collector's
    way: each :class:`~repro.cpu.thread.ThreadProgram` holds its ops as
    the encoded columns of :func:`repro.cpu.opstream.encode` (tuples the
    collector stops tracking), not as op objects, so the 13 applications'
    ~180k ops cost full collections nothing.
    """
    profile = SPLASH2_PROFILES.get(app) or COMMERCIAL_PROFILES.get(app)
    if profile is None:
        raise KeyError(f"unknown application {app!r}; choose from {list(ALL_APPS)}")
    return generate_profile_workload(
        profile, threads, words_per_line, num_directories, instructions, seed
    )


class SweepRunner:
    """Runs and caches simulations over a (config, app) grid.

    ``jobs`` controls how many worker processes a :meth:`sweep` may use;
    single-cell :meth:`result` calls always run in-process.  Every cached
    result is slim (``machine=None``): a grid holds plain data, never a
    live machine per cell.  A caller that needs the machine runs the
    cell with :func:`~repro.system.run_workload` itself.
    """

    def __init__(
        self,
        instructions_per_thread: int = 20_000,
        seed: int = 0,
        record_history: bool = False,
        config_overrides: Optional[Dict[str, Callable[[SystemConfig], SystemConfig]]] = None,
        jobs: int = 1,
        cell_timeout: Optional[float] = None,
    ):
        self.instructions_per_thread = instructions_per_thread
        self.seed = seed
        self.record_history = record_history
        self.config_overrides = config_overrides or {}
        self.jobs = jobs
        #: Per-cell wall-clock budget (seconds) for :meth:`sweep`: a
        #: livelocked simulation is killed and recorded in
        #: :attr:`failed` instead of hanging the whole sweep.
        self.cell_timeout = cell_timeout
        self._cache: Dict[Tuple, RunResult] = {}
        #: Cells lost to infra failures (timeout / worker death), keyed
        #: like the cache; they are skipped by :meth:`sweep`'s output
        #: rather than raising.
        self.failed: Dict[Tuple, CellFailure] = {}

    def memo_key(self, config_name: str, app: str) -> Tuple:
        """The cache key of one cell under this runner's parameters.

        The run parameters participate in the key so that mutating the
        runner between calls (seed, budget, history) can never serve a
        stale result recorded under the old parameters.
        """
        return memo_key(
            config_name,
            app,
            self.instructions_per_thread,
            self.seed,
            self.record_history,
        )

    def config_for(self, config_name: str) -> SystemConfig:
        try:
            config = NAMED_CONFIGS[config_name](seed=self.seed)
        except KeyError:
            raise KeyError(
                f"unknown configuration {config_name!r}; "
                f"choose from {sorted(NAMED_CONFIGS)}"
            ) from None
        override = self.config_overrides.get(config_name)
        if override is not None:
            config = override(config).validate()
        return config

    def _run_cell(self, cell: Tuple[str, str]) -> RunResult:
        config_name, app = cell
        config = self.config_for(config_name)
        workload = build_app_workload(
            app, config, self.instructions_per_thread, self.seed
        )
        return run_workload(
            config,
            workload.programs,
            workload.address_space,
            record_history=self.record_history,
        )

    def _run_cell_slim(self, cell: Tuple[str, str]) -> RunResult:
        """One cell without its machine: what the cache and workers keep."""
        return self._run_cell(cell).slim()

    def result(self, config_name: str, app: str) -> RunResult:
        """Run (or fetch) one simulation; the result carries ``machine=None``."""
        key = self.memo_key(config_name, app)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self._run_cell_slim((config_name, app))
        self._cache[key] = result
        return result

    def sweep(
        self, config_names: List[str], apps: List[str]
    ) -> Dict[Tuple[str, str], RunResult]:
        """Run the full grid; returns {(config, app): result}.

        With ``jobs > 1`` the uncached cells run across a process pool;
        results are identical to serial ones (all carry ``machine=None``),
        and the returned mapping is keyed and ordered exactly as in a
        serial sweep.  With :attr:`cell_timeout` set, a cell that exceeds its
        wall-clock budget (or whose worker dies) is recorded in
        :attr:`failed` and omitted from the mapping instead of raising.
        """
        cells = [(name, app) for app in apps for name in config_names]
        missing = [
            c
            for c in cells
            if self.memo_key(*c) not in self._cache
            and self.memo_key(*c) not in self.failed
        ]
        if missing and (self.jobs != 1 or self.cell_timeout is not None):
            for cell, result in zip(
                missing,
                parallel_map(
                    self._run_cell_slim,
                    missing,
                    jobs=self.jobs,
                    timeout=self.cell_timeout,
                    failure_mode="return",
                ),
            ):
                if isinstance(result, CellFailure):
                    self.failed[self.memo_key(*cell)] = result
                else:
                    self._cache[self.memo_key(*cell)] = result
        out: Dict[Tuple[str, str], RunResult] = {}
        for name, app in cells:
            if self.memo_key(name, app) in self.failed:
                continue
            out[(name, app)] = self.result(name, app)
        return out

    def cached_count(self) -> int:
        return len(self._cache)

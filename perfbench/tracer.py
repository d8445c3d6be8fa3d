"""In-memory span tracer that wraps the simulator's layer boundaries.

Nothing under ``src/`` knows about this module: :meth:`Tracer.install`
replaces public functions and methods at each layer boundary with
wrappers, from the benchmark's side, for the rest of one worker process.

A span is ``(name, start, end, parent, group)``; ``group`` is the shared
id of one harness cell or one commit-storm run.  A span's *self time* is
its duration minus the time covered by its child spans, so the self times
of all spans plus the time outside every span add up to the traced wall
time exactly.  Spans are kept in columnar arrays and written out once,
after the run.

Every scheduled event action becomes a span named after its label
(``procN.step`` -> the driver step of the running config, ``commitN.*``
-> the commit pipeline), which is how ``engine.loop`` self time comes
out as the event loop minus the actions it fires.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

#: Driver-step span per named config: BulkSC drivers live in ``core``,
#: the baselines in ``consistency``.
STEP_SPAN = {
    "BSCbase": "core.driver.step.BSCbase",
    "BSCdypvt": "core.driver.step.BSCdypvt",
    "BSCexact": "core.driver.step.BSCexact",
    "BSCstpvt": "core.driver.step.BSCstpvt",
    "SC": "consistency.driver.step.SC",
    "RC": "consistency.driver.step.RC",
    "SC++": "consistency.driver.step.SCpp",
}


class Tracer:
    """Span stack, per-name self time and call counts, and span records."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self.calls: List[int] = []
        #: Open spans: ``[start, child_time, record_index]``.
        self.stack: List[list] = []
        self.group = 0
        self.config_name = ""
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_group = array("i")
        self.memo_calls = 0
        self.memo_hits = 0
        self.schedule_calls = 0
        self.started = self.clock()

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return index

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call records one span called ``name``."""
        return functools.wraps(fn)(self._spanned(self.name_id(name), fn))

    def _spanned(self, index: int, fn: Callable) -> Callable:
        clock = self.clock
        stack = self.stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        sp_name, sp_start, sp_end = self.sp_name, self.sp_start, self.sp_end
        sp_parent, sp_group = self.sp_parent, self.sp_group
        tracer = self

        def wrapper(*args, **kwargs):
            record = len(sp_name)
            sp_name.append(index)
            sp_parent.append(stack[-1][2] if stack else -1)
            sp_group.append(tracer.group)
            sp_end.append(0.0)
            frame = [clock(), 0.0, record]
            sp_start.append(frame[0])
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self_s[index] += duration - frame[1]
                total_s[index] += duration
                calls[index] += 1
                sp_end[record] = end
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def record(self, name: str, start: float, end: float, group: int) -> None:
        """Record a span that overlaps others (a concurrent service txn).

        Such spans keep their timing and id but stay out of self-time
        accounting, which assumes properly nested spans.
        """
        self.sp_name.append(self.name_id(name))
        self.sp_start.append(start)
        self.sp_end.append(end)
        self.sp_parent.append(-1)
        self.sp_group.append(group)

    # ------------------------------------------------------------------
    def wrap_method(self, cls, attr: str, name: str) -> None:
        setattr(cls, attr, self.span(name, cls.__dict__[attr]))

    def wrap_function(self, module, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        original = getattr(module, attr)
        wrapped = self.span(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                getattr(mod, attr, None) is original
            ):
                setattr(mod, attr, wrapped)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from repro.coherence.dirbdm import DirBDM
        from repro.coherence.protocol import CoherenceController
        from repro.core import arbiter, distributed_arbiter
        from repro.core.bdm import BDM
        from repro.core.commit import CommitEngine
        from repro.cpu import opstream
        from repro.engine.simulator import Simulator
        from repro.harness import experiments, runner
        from repro.interconnect.network import Network
        from repro.memory.cache import SetAssocCache
        from repro.signatures import base, bloom, exact
        from repro.system import Machine
        from repro.verify import sc_checker

        self._index_cache_base = bloom.INDEX_CACHE.counters()
        for artifact in ("figure9", "figure10", "figure11", "table3", "table4"):
            self.wrap_function(experiments, artifact, f"harness.{artifact}")
        self._wrap_memo(runner.SweepRunner)
        self.wrap_function(runner, "build_app_workload", "workloads.build")
        self.wrap_function(opstream, "stream_for", "cpu.opstream.compile")
        self.wrap_method(Machine, "__init__", "system.machine_init")
        self.wrap_method(Simulator, "run", "engine.loop")
        self._wrap_schedule(Simulator)
        self.wrap_method(CommitEngine, "submit", "core.commit.submit")
        self.wrap_method(arbiter.Arbiter, "decide", "core.arbiter.decide")
        self.wrap_method(
            distributed_arbiter.DistributedArbiter, "decide", "core.arbiter.decide"
        )
        self.wrap_method(BDM, "disambiguate", "core.bdm.disambiguate")
        self.wrap_method(BDM, "bulk_invalidate", "core.bdm.bulk_invalidate")
        for attr in ("read", "write", "fetch_for_chunk"):
            self.wrap_method(CoherenceController, attr, "coherence.fetch")
        self.wrap_method(DirBDM, "expand_commit", "coherence.dirbdm.expand")
        self.wrap_method(SetAssocCache, "insert", "memory.cache.insert")
        for module in (base, bloom, exact):
            for cls in vars(module).values():
                if not (isinstance(cls, type) and issubclass(cls, base.Signature)):
                    continue
                if cls.__module__ != module.__name__:
                    continue
                for attr in ("disjoint", "decode_sets", "member_many"):
                    if attr in cls.__dict__:
                        self.wrap_method(cls, attr, f"signatures.{attr}")
        self.wrap_method(Network, "send", "interconnect.send")
        self.wrap_function(sc_checker, "check_sequential_consistency", "verify.sc_check")
        certify = sys.modules.get("repro.service.certify")
        if certify is not None:
            self.wrap_function(certify, "certify_run", "service.certify")
        self.started = self.clock()

    def _wrap_memo(self, cls) -> None:
        tracer = self
        original_result = cls.__dict__["result"]
        original_cell = cls.__dict__["_run_cell"]
        cell_span = self.span("harness.cell", original_cell)

        @functools.wraps(original_result)
        def result(runner, config_name, app):
            cached = runner.cached_count()
            out = original_result(runner, config_name, app)
            tracer.memo_calls += 1
            tracer.memo_hits += runner.cached_count() == cached
            return out

        @functools.wraps(original_cell)
        def run_cell(runner, cell):
            tracer.begin_group(cell[0])
            return cell_span(runner, cell)

        cls.result = result
        cls._run_cell = run_cell

    def begin_group(self, config_name: str) -> None:
        """Start the next cell/run: a fresh shared span id and its config."""
        self.group += 1
        self.config_name = config_name

    def _wrap_schedule(self, sim_cls) -> None:
        tracer = self
        original_at = sim_cls.__dict__["at"]
        spanned = self._spanned
        commit = self.name_id("core.commit.event")
        other = self.name_id("engine.action.other")
        steps = {config: self.name_id(name) for config, name in STEP_SPAN.items()}

        @functools.wraps(original_at)
        def at(sim, time, action, priority=0, label=""):
            tracer.schedule_calls += 1
            if label.startswith("commit"):
                index = commit
            elif label.endswith(".step"):
                index = steps.get(tracer.config_name, other)
            else:
                index = other
            return original_at(sim, time, spanned(index, action), priority, label)

        sim_cls.at = at

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls": n, "self_s": s, "total_s": s}}``."""
        return {
            name: {
                "calls": self.calls[i],
                "self_s": self.self_s[i],
                "total_s": self.total_s[i],
            }
            for i, name in enumerate(self.names)
        }

    def index_cache_delta(self) -> Tuple[int, int]:
        """Signature index-cache (hits, misses) since :meth:`install`."""
        from repro.signatures.bloom import INDEX_CACHE

        now = INDEX_CACHE.counters()
        base = self._index_cache_base
        return now["hits"] - base["hits"], now["misses"] - base["misses"]

    def write(self, path: str) -> None:
        """Write every recorded span as columnar JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "origin": self.started,
                    "name": self.sp_name.tolist(),
                    "start": [t - self.started for t in self.sp_start],
                    "end": [t - self.started for t in self.sp_end],
                    "parent": self.sp_parent.tolist(),
                    "group": self.sp_group.tolist(),
                },
                fh,
                separators=(",", ":"),
            )

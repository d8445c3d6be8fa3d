"""Campaign specs: pure-data descriptions of a certification campaign.

A spec is the cross product the queue expands::

    configs x workloads x fault variants x seeds

Everything is JSON-serializable and validated up front, so a spec
written to ``campaign.json`` at ``run`` time reconstructs the identical
cell queue at ``resume`` time — resume correctness starts here.

Workload entries reuse the replay workload-spec dialect
(:mod:`repro.replay.workload`): ``{"kind": "litmus", "test": "SB",
"stagger": [1, 60]}`` or ``{"kind": "app", "app": "fft"}``.  App entries
deliberately omit ``instructions``/``seed`` — the campaign's shared
instruction budget and the cell's seed are filled in at expansion, so
one workload entry fans out across every seed.

A third kind runs no simulation at all: ``{"kind": "contracts",
"trace": "run.jsonl", "component": "bdm"}`` statically checks one
component's ordering contract (or ``"all"``) against a recorded trace
(:mod:`repro.contracts`), so per-component checks of a big trace
parallelize across the campaign runner like any other cell.  Contract
cells ignore the cell seed and config (static analysis has neither);
their identity is the trace + component, so the queue's dedup collapses
the config × seed fan-out to one cell each.

The CLI accepts shorthand strings and expands them here:

* ``litmus`` — every litmus test under the quick stagger grid
  (:data:`repro.replay.workload.QUICK_LITMUS_STAGGERS`);
* ``litmus:SB`` — one test under the quick stagger grid;
* ``litmus:SB/1-60`` — one test under one stagger (``litmus:all/1-60``
  is every test under it);
* ``app:fft`` — one synthetic application;
* ``apps`` — the first three synthetic applications (the chaos set);
* ``contracts:TRACE.jsonl`` — one cell per component contract (plus the
  composition obligation) over a recorded trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import CampaignError, ConfigError, ProgramError
from repro.faults.plan import CrashPoint, FaultPlan
from repro.params import CERTIFY_MAX_EVENTS
from repro.replay.workload import QUICK_LITMUS_STAGGERS, select_litmus_tests

SPEC_VERSION = 1


@dataclass(frozen=True)
class FaultVariant:
    """One fault environment a cell runs under.

    ``faults=""`` means a fault-free environment (the control group of a
    certification campaign).  ``crashes`` are scripted arbiter crashes
    in their canonical ``POINT:OCC[:TARGET]`` spelling.
    """

    faults: str = ""
    rate: Optional[float] = None
    no_retry: bool = False
    crashes: Tuple[str, ...] = ()

    def validate(self) -> None:
        try:
            if self.faults:
                FaultPlan.parse(self.faults, rate=self.rate)
            for crash in self.crashes:
                CrashPoint.parse(crash)
        except ConfigError as exc:
            raise CampaignError(f"invalid fault variant: {exc}") from exc

    def describe(self) -> str:
        parts = [self.faults or "none"]
        if self.rate is not None:
            parts.append(f"rate={self.rate:g}")
        if self.no_retry:
            parts.append("no-retry")
        if self.crashes:
            parts.append("crash=" + "+".join(self.crashes))
        return ",".join(parts)

    def to_obj(self) -> dict:
        return {
            "faults": self.faults,
            "rate": self.rate,
            "no_retry": self.no_retry,
            "crashes": list(self.crashes),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "FaultVariant":
        variant = cls(
            faults=str(obj.get("faults", "") or ""),
            rate=obj.get("rate"),
            no_retry=bool(obj.get("no_retry", False)),
            crashes=tuple(
                CrashPoint.parse(c).canonical() for c in obj.get("crashes", ())
            ),
        )
        variant.validate()
        return variant

    @classmethod
    def parse(cls, spelling: str) -> "FaultVariant":
        """CLI shorthand: ``drop,delay,dup[@RATE][!][+POINT:OCC[:TGT]...]``.

        ``!`` disables retries; each ``+``-joined suffix is a scripted
        crash.  ``none`` (or the empty string) is the fault-free variant.
        """
        text = spelling.strip()
        crashes: List[str] = []
        if "+" in text:
            text, *crash_parts = text.split("+")
            crashes = [CrashPoint.parse(c).canonical() for c in crash_parts]
        no_retry = text.endswith("!")
        if no_retry:
            text = text[:-1]
        rate: Optional[float] = None
        if "@" in text:
            text, rate_text = text.rsplit("@", 1)
            try:
                rate = float(rate_text)
            except ValueError:
                raise CampaignError(
                    f"bad fault rate {rate_text!r} in {spelling!r}"
                ) from None
        if text.strip().lower() in ("", "none"):
            text = ""
        variant = cls(
            faults=text.strip(),
            rate=rate,
            no_retry=no_retry,
            crashes=tuple(crashes),
        )
        variant.validate()
        return variant


def _litmus_tests(name: str = "all") -> list:
    """The litmus tests ``name`` selects; an unknown name is a CampaignError."""
    try:
        return select_litmus_tests(name)
    except ProgramError as exc:
        raise CampaignError(str(exc)) from None


def expand_workload_arg(arg: str) -> List[dict]:
    """Expand one CLI workload shorthand into workload-spec dicts."""
    text = arg.strip()
    if text == "litmus":
        return [
            {"kind": "litmus", "test": test.name, "stagger": list(stagger)}
            for test in _litmus_tests()
            for stagger in QUICK_LITMUS_STAGGERS
        ]
    if text == "apps":
        from repro.harness.runner import ALL_APPS

        return [{"kind": "app", "app": app} for app in ALL_APPS[:3]]
    if text.startswith("litmus:"):
        rest = text[len("litmus:"):]
        stagger_grid: Sequence[Tuple[int, ...]] = QUICK_LITMUS_STAGGERS
        if "/" in rest:
            rest, stagger_text = rest.split("/", 1)
            try:
                stagger_grid = [
                    tuple(int(s) for s in stagger_text.split("-"))
                ]
            except ValueError:
                raise CampaignError(
                    f"bad stagger {stagger_text!r} in workload {arg!r}"
                ) from None
        return [
            {"kind": "litmus", "test": test.name, "stagger": list(stagger)}
            for test in _litmus_tests(rest)
            for stagger in stagger_grid
        ]
    if text.startswith("app:"):
        from repro.harness.runner import ALL_APPS

        app = text[len("app:"):]
        if app not in ALL_APPS:
            raise CampaignError(
                f"unknown application {app!r} (known: {', '.join(ALL_APPS)})"
            )
        return [{"kind": "app", "app": app}]
    if text.startswith("contracts:"):
        from repro.contracts.checker import CHECKABLE

        trace = text[len("contracts:"):]
        if not trace:
            raise CampaignError(
                "contracts workload needs a trace path (contracts:TRACE.jsonl)"
            )
        return [
            {"kind": "contracts", "trace": trace, "component": component}
            for component in CHECKABLE
        ]
    raise CampaignError(
        f"unknown workload shorthand {arg!r} "
        "(expected litmus, litmus:NAME[/S1-S2], app:NAME, apps, "
        "or contracts:TRACE.jsonl)"
    )


def parse_seeds(spelling: str) -> List[int]:
    """``"0:100"`` (half-open range), ``"1,2,5"``, or a single integer."""
    text = spelling.strip()
    try:
        if ":" in text:
            start_text, stop_text = text.split(":", 1)
            start, stop = int(start_text), int(stop_text)
            if stop <= start:
                raise CampaignError(
                    f"empty seed range {spelling!r} (need stop > start)"
                )
            return list(range(start, stop))
        if "," in text:
            return [int(s) for s in text.split(",") if s.strip()]
        return [int(text)]
    except ValueError:
        raise CampaignError(f"bad seed spelling {spelling!r}") from None


@dataclass(frozen=True)
class CampaignSpec:
    """The full, validated description of one campaign."""

    name: str
    configs: Tuple[str, ...]
    workloads: Tuple[dict, ...] = field(default=())
    seeds: Tuple[int, ...] = (0,)
    faults: Tuple[FaultVariant, ...] = (FaultVariant(),)
    instructions: int = 2000
    max_events: int = CERTIFY_MAX_EVENTS

    def validate(self) -> "CampaignSpec":
        from repro.params import NAMED_CONFIGS

        if not self.name:
            raise CampaignError("campaign spec needs a name")
        if not self.configs:
            raise CampaignError("campaign spec needs at least one config")
        for config in self.configs:
            if config not in NAMED_CONFIGS:
                raise CampaignError(
                    f"unknown configuration {config!r}; "
                    f"known: {', '.join(sorted(NAMED_CONFIGS))}"
                )
        if not self.workloads:
            raise CampaignError("campaign spec needs at least one workload")
        for workload in self.workloads:
            kind = workload.get("kind")
            if kind == "litmus":
                if len(_litmus_tests(workload.get("test"))) != 1:
                    raise CampaignError(
                        "a litmus workload names one test, not 'all'"
                    )
            elif kind == "app":
                from repro.harness.runner import ALL_APPS

                if workload.get("app") not in ALL_APPS:
                    raise CampaignError(
                        f"unknown application {workload.get('app')!r}"
                    )
            elif kind == "contracts":
                from repro.contracts.checker import CHECKABLE

                if not workload.get("trace"):
                    raise CampaignError(
                        "contracts workload needs a 'trace' path"
                    )
                component = workload.get("component", "all")
                if component != "all" and component not in CHECKABLE:
                    raise CampaignError(
                        f"unknown contract component {component!r} "
                        f"(known: all, {', '.join(CHECKABLE)})"
                    )
            else:
                raise CampaignError(f"unknown workload kind {kind!r}")
        if not self.seeds:
            raise CampaignError("campaign spec needs at least one seed")
        if not self.faults:
            raise CampaignError(
                "campaign spec needs at least one fault variant "
                "(use the empty variant for fault-free control cells)"
            )
        for variant in self.faults:
            variant.validate()
        if self.instructions <= 0:
            raise CampaignError("instructions must be positive")
        if self.max_events <= 0:
            raise CampaignError("max_events must be positive")
        return self

    @property
    def cell_count(self) -> int:
        return (
            len(self.configs)
            * len(self.workloads)
            * len(self.faults)
            * len(self.seeds)
        )

    def to_obj(self) -> dict:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "configs": list(self.configs),
            "workloads": [dict(w) for w in self.workloads],
            "seeds": list(self.seeds),
            "faults": [v.to_obj() for v in self.faults],
            "instructions": self.instructions,
            "max_events": self.max_events,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "CampaignSpec":
        version = obj.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise CampaignError(
                f"unsupported campaign spec version {version!r} "
                f"(this build reads version {SPEC_VERSION})"
            )
        try:
            spec = cls(
                name=str(obj["name"]),
                configs=tuple(obj["configs"]),
                workloads=tuple(dict(w) for w in obj["workloads"]),
                seeds=tuple(int(s) for s in obj["seeds"]),
                faults=tuple(
                    FaultVariant.from_obj(v) for v in obj.get("faults", [{}])
                ),
                instructions=int(obj.get("instructions", 2000)),
                max_events=int(obj.get("max_events", CERTIFY_MAX_EVENTS)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(f"malformed campaign spec: {exc!r}") from exc
        return spec.validate()

    @classmethod
    def build(
        cls,
        name: str,
        configs: Sequence[str],
        workload_args: Sequence[str],
        seeds: str = "0:1",
        fault_args: Sequence[str] = ("none",),
        instructions: int = 2000,
        max_events: int = CERTIFY_MAX_EVENTS,
    ) -> "CampaignSpec":
        """Build a spec from CLI shorthands."""
        workloads: List[dict] = []
        for arg in workload_args:
            workloads.extend(expand_workload_arg(arg))
        spec = cls(
            name=name,
            configs=tuple(configs),
            workloads=tuple(workloads),
            seeds=tuple(parse_seeds(seeds)),
            faults=tuple(FaultVariant.parse(a) for a in fault_args),
            instructions=instructions,
            max_events=max_events,
        )
        return spec.validate()

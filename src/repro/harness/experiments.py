"""The experiment registry: every paper artifact -> its code and claims.

Each artifact function returns both the structured data and a rendered
text report.  :data:`EXPERIMENTS` maps each artifact to its render
function and to the paper's claims about it, as data: a :class:`Claim`
is a predicate over the artifact's data and the apps run.
``python -m repro experiments <name>|all`` renders the artifacts, prints
one verdict per claim and exits 1 if any claim fails; ``all`` prints the
full reproduction archived in ``docs/reproduction_log.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.harness.figures import render_grouped_bars, render_stacked_traffic
from repro.harness.metrics import (
    CharacterizationRow,
    CommitRow,
    geometric_mean,
    speedup_over,
    squashed_instruction_pct,
    total_traffic,
    traffic_breakdown_normalized,
)
from repro.harness.runner import (
    ALL_APPS,
    COMMERCIAL_APPS,
    FIGURE9_CONFIGS,
    SPLASH2_APPS,
    SweepRunner,
)
from repro.harness.tables import render_table3, render_table4
from repro.params import SystemConfig


# ---------------------------------------------------------------------------
# Figure 9: performance of all configurations, normalized to RC
# ---------------------------------------------------------------------------

def figure9(
    runner: SweepRunner, apps: Sequence[str] = ALL_APPS
) -> Tuple[Dict[str, Dict[str, float]], str]:
    """Speedup over RC for SC, RC, SC++, BSCbase, BSCdypvt, BSCexact, BSCstpvt.

    Expected shape (paper): BSCdypvt ≈ RC ≈ SC++; SC clearly slower;
    BSCbase a few percent below BSCdypvt; BSCexact ≈ BSCdypvt; radix is
    the aliasing outlier.
    """
    # Prefetch the whole grid in one sweep: with runner.jobs > 1 the
    # uncached cells fan out across workers; the per-cell reads below then
    # hit the cache, so the assembled artifact is order-independent.
    runner.sweep(list(FIGURE9_CONFIGS), list(apps))
    series: Dict[str, Dict[str, float]] = {name: {} for name in FIGURE9_CONFIGS}
    for app in apps:
        rc = runner.result("RC", app)
        for name in FIGURE9_CONFIGS:
            series[name][app] = speedup_over(rc, runner.result(name, app))
    report = render_grouped_bars(
        "Figure 9: speedup over RC", series, list(apps)
    )
    return series, report


# ---------------------------------------------------------------------------
# Figure 10: BSCdypvt with different chunk sizes
# ---------------------------------------------------------------------------

def figure10(
    instructions: int = 20_000,
    seed: int = 0,
    apps: Sequence[str] = ALL_APPS,
    chunk_sizes: Sequence[int] = (1000, 2000, 4000),
    jobs: int = 1,
) -> Tuple[Dict[str, Dict[str, float]], str]:
    """BSCdypvt at chunk sizes 1000/2000/4000 plus 4000-exact.

    Expected shape: mild degradation as chunks grow, mostly recovered by
    the exact signature (the loss is aliasing, not real sharing).
    """
    def chunk_override(size: int) -> Callable[[SystemConfig], SystemConfig]:
        return lambda cfg: cfg.with_bulksc(chunk_size_instructions=size)

    series: Dict[str, Dict[str, float]] = {}
    base_runner = SweepRunner(instructions, seed, jobs=jobs)
    base_runner.sweep(["RC"], list(apps))
    for size in chunk_sizes:
        runner = SweepRunner(
            instructions,
            seed,
            config_overrides={"BSCdypvt": chunk_override(size)},
            jobs=jobs,
        )
        runner.sweep(["BSCdypvt"], list(apps))
        label = str(size)
        series[label] = {}
        for app in apps:
            rc = base_runner.result("RC", app)
            series[label][app] = speedup_over(rc, runner.result("BSCdypvt", app))
    exact_runner = SweepRunner(
        instructions,
        seed,
        config_overrides={"BSCexact": chunk_override(max(chunk_sizes))},
        jobs=jobs,
    )
    exact_runner.sweep(["BSCexact"], list(apps))
    label = f"{max(chunk_sizes)}-exact"
    series[label] = {}
    for app in apps:
        rc = base_runner.result("RC", app)
        series[label][app] = speedup_over(rc, exact_runner.result("BSCexact", app))
    report = render_grouped_bars(
        "Figure 10: BSCdypvt chunk-size sensitivity (speedup over RC)",
        series,
        list(apps),
    )
    return series, report


# ---------------------------------------------------------------------------
# Table 3: characterization of BulkSC
# ---------------------------------------------------------------------------

def table3(
    runner: SweepRunner, apps: Sequence[str] = ALL_APPS
) -> Tuple[Dict[str, Dict[str, float]], str]:
    """Table 3 rows for BSCdypvt, plus squashed% for BSCexact/BSCbase."""
    runner.sweep(["BSCexact", "BSCdypvt", "BSCbase"], list(apps))
    rows: List[CharacterizationRow] = []
    squash_columns: Dict[str, Dict[str, float]] = {
        "BSCexact": {},
        "BSCdypvt": {},
        "BSCbase": {},
    }
    for app in apps:
        dypvt = runner.result("BSCdypvt", app)
        rows.append(CharacterizationRow.from_result(app, dypvt))
        for name in squash_columns:
            squash_columns[name][app] = squashed_instruction_pct(
                runner.result(name, app)
            )
    report_lines = [render_table3(rows), "", "# Squashed instructions (%)"]
    header = ["app", "BSCexact", "BSCdypvt", "BSCbase"]
    report_lines.append("  ".join(h.rjust(9) for h in header))
    for app in apps:
        cells = [app.rjust(9)] + [
            f"{squash_columns[name][app]:.2f}".rjust(9)
            for name in ("BSCexact", "BSCdypvt", "BSCbase")
        ]
        report_lines.append("  ".join(cells))
    data = {
        "squash_exact": squash_columns["BSCexact"],
        "squash_dypvt": squash_columns["BSCdypvt"],
        "squash_base": squash_columns["BSCbase"],
        "read_set": {r.app: r.read_set for r in rows},
        "write_set": {r.app: r.write_set for r in rows},
        "priv_write_set": {r.app: r.priv_write_set for r in rows},
        "priv_buffer_per_1k": {r.app: r.data_from_priv_buffer_per_1k for r in rows},
        "extra_invs_per_1k": {r.app: r.extra_cache_invs_per_1k for r in rows},
        "spec_read_disp_per_100k": {
            r.app: r.spec_read_displacements_per_100k for r in rows
        },
        "spec_write_disp_per_100k": {
            r.app: r.spec_write_displacements_per_100k for r in rows
        },
    }
    return data, "\n".join(report_lines)


# ---------------------------------------------------------------------------
# Table 4: commit process and coherence operations
# ---------------------------------------------------------------------------

def table4(
    runner: SweepRunner, apps: Sequence[str] = ALL_APPS
) -> Tuple[Dict[str, Dict[str, float]], str]:
    """Table 4 rows for BSCdypvt."""
    runner.sweep(["BSCdypvt"], list(apps))
    rows = [
        CommitRow.from_result(app, runner.result("BSCdypvt", app)) for app in apps
    ]
    data = {
        "lookups_per_commit": {r.app: r.lookups_per_commit for r in rows},
        "unnecessary_lookups_pct": {r.app: r.unnecessary_lookups_pct for r in rows},
        "unnecessary_updates_pct": {r.app: r.unnecessary_updates_pct for r in rows},
        "nodes_per_w_sig": {r.app: r.nodes_per_w_sig for r in rows},
        "pending_w_sigs": {r.app: r.pending_w_sigs for r in rows},
        "nonempty_w_list_pct": {r.app: r.nonempty_w_list_pct for r in rows},
        "r_sig_required_pct": {r.app: r.r_sig_required_pct for r in rows},
        "empty_w_sig_pct": {r.app: r.empty_w_sig_pct for r in rows},
    }
    return data, render_table4(rows)


# ---------------------------------------------------------------------------
# Figure 11: network traffic normalized to RC
# ---------------------------------------------------------------------------

def figure11(
    instructions: int = 20_000,
    seed: int = 0,
    apps: Sequence[str] = ALL_APPS,
    jobs: int = 1,
) -> Tuple[Dict[str, Dict[str, Dict[str, float]]], str]:
    """Traffic breakdown for R (RC), E (BSCexact), N (BSCdypvt without the
    RSig optimization), and B (BSCdypvt), normalized to RC's total bytes.

    Expected shape: B within ~5-15% of R on average, RdSig nearly absent
    from B (the RSig optimization), and N showing the RdSig traffic that
    optimization removes.
    """
    runner = SweepRunner(instructions, seed, jobs=jobs)
    no_rsig_runner = SweepRunner(
        instructions,
        seed,
        config_overrides={
            "BSCdypvt": lambda cfg: cfg.with_bulksc(rsig_optimization=False)
        },
        jobs=jobs,
    )
    runner.sweep(["RC", "BSCexact", "BSCdypvt"], list(apps))
    no_rsig_runner.sweep(["BSCdypvt"], list(apps))
    breakdowns: Dict[str, Dict[str, Dict[str, float]]] = {
        "R": {},
        "E": {},
        "N": {},
        "B": {},
    }
    for app in apps:
        rc = runner.result("RC", app)
        rc_total = total_traffic(rc)
        breakdowns["R"][app] = traffic_breakdown_normalized(rc, rc_total)
        breakdowns["E"][app] = traffic_breakdown_normalized(
            runner.result("BSCexact", app), rc_total
        )
        breakdowns["N"][app] = traffic_breakdown_normalized(
            no_rsig_runner.result("BSCdypvt", app), rc_total
        )
        breakdowns["B"][app] = traffic_breakdown_normalized(
            runner.result("BSCdypvt", app), rc_total
        )
    report = render_stacked_traffic(
        "Figure 11: traffic normalized to RC (R=RC, E=BSCexact, "
        "N=BSCdypvt w/o RSig, B=BSCdypvt)",
        breakdowns,
        list(apps),
    )
    return breakdowns, report


# ---------------------------------------------------------------------------
# Registry: each artifact, its render function and the paper's claims
# ---------------------------------------------------------------------------

Data = Mapping[str, Any]


@dataclass(frozen=True)
class Claim:
    """One claim of the paper, checked on its artifact's data.

    ``section`` is the paper's Section 7 subsection that makes it;
    ``keys`` names the entries of the artifact's data that ``holds``
    reads; ``holds(data, apps)`` judges the apps that were run.  The
    thresholds are shapes, not the paper's absolute numbers.
    """

    section: str
    text: str
    keys: Tuple[str, ...]
    holds: Callable[[Data, Sequence[str]], bool]


@dataclass(frozen=True)
class Experiment:
    """One paper artifact, the code that renders it and its claims."""

    key: str
    paper_artifact: str
    description: str
    render: Callable[[SweepRunner, Sequence[str]], Tuple[Data, str]]
    claims: Tuple[Claim, ...]

    def check(self, data: Data, apps: Sequence[str]) -> List[Tuple[Claim, bool]]:
        """Each claim with whether it holds on ``data``."""
        return [(claim, bool(claim.holds(data, apps))) for claim in self.claims]


def _gm(series: Data, name: str, apps: Sequence[str]) -> float:
    return geometric_mean([series[name][app] for app in apps])


def _mean(column: Mapping[str, float], apps: Sequence[str]) -> float:
    return sum(column[app] for app in apps) / len(apps) if apps else 0.0


def _traffic_overhead(breakdowns: Data, apps: Sequence[str]) -> float:
    """B's geometric-mean total traffic over R's."""

    def totals(config: str) -> List[float]:
        return [sum(breakdowns[config][app].values()) for app in apps]

    return geometric_mean(totals("B")) / geometric_mean(totals("R"))


def _rdsig(breakdowns: Data, config: str, apps: Sequence[str]) -> float:
    return sum(breakdowns[config][app].get("RdSig", 0.0) for app in apps)


def _splash_over_commercial(data: Data, apps: Sequence[str]) -> bool:
    splash = [app for app in apps if app in SPLASH2_APPS]
    commercial = [app for app in apps if app in COMMERCIAL_APPS]
    if not (splash and commercial):
        return True
    column = data["empty_w_sig_pct"]
    return _mean(column, splash) > _mean(column, commercial)


def _sized(render: Callable[..., Tuple[Data, str]]):
    """Adapt an artifact that builds its own runners to the registry's
    ``render(runner, apps)``: it takes the runner's size, seed and jobs."""

    def run(runner: SweepRunner, apps: Sequence[str]) -> Tuple[Data, str]:
        return render(
            instructions=runner.instructions_per_thread,
            seed=runner.seed,
            apps=apps,
            jobs=runner.jobs,
        )

    return run


#: In reproduction order: Tables 3-4 read Fig 9's cells from its runner.
EXPERIMENTS: Dict[str, Experiment] = {
    "figure9": Experiment(
        key="figure9",
        paper_artifact="Figure 9",
        description="Performance of SC, RC, SC++, and four BulkSC "
        "configurations, normalized to RC, over 11 SPLASH-2 apps and two "
        "commercial workloads.",
        render=figure9,
        claims=(
            Claim("7.1", "RC's geometric mean is 1.0 (the normalization)",
                  ("RC",), lambda s, apps: _gm(s, "RC", apps) == 1.0),
            Claim("7.1", "BSCdypvt's geometric mean is above 0.80 of RC",
                  ("BSCdypvt",), lambda s, apps: _gm(s, "BSCdypvt", apps) > 0.80),
            Claim("7.1", "SC's geometric mean is below 0.97 of RC",
                  ("SC",), lambda s, apps: _gm(s, "SC", apps) < 0.97),
            Claim("7.1", "SC++'s geometric mean is above 0.9 of RC",
                  ("SC++",), lambda s, apps: _gm(s, "SC++", apps) > 0.9),
            Claim("7.1", "exact signatures never hurt: BSCexact >= BSCdypvt - 0.05",
                  ("BSCexact", "BSCdypvt"),
                  lambda s, apps: _gm(s, "BSCexact", apps)
                  >= _gm(s, "BSCdypvt", apps) - 0.05),
            Claim("7.1", "BSCbase does not beat BSCdypvt: BSCbase <= BSCdypvt + 0.03",
                  ("BSCbase", "BSCdypvt"),
                  lambda s, apps: _gm(s, "BSCbase", apps)
                  <= _gm(s, "BSCdypvt", apps) + 0.03),
        ),
    ),
    "table3": Experiment(
        key="table3",
        paper_artifact="Table 3",
        description="BulkSC characterization: squashed instructions, "
        "R/W/Wpriv set sizes, speculative displacements, Private Buffer "
        "supplies, extra cache invalidations.",
        render=table3,
        claims=(
            Claim("7.2", "mean squashed %: BSCexact <= BSCdypvt + 0.5",
                  ("squash_exact", "squash_dypvt"),
                  lambda d, apps: _mean(d["squash_exact"], apps)
                  <= _mean(d["squash_dypvt"], apps) + 0.5),
            Claim("7.2", "mean squashed %: BSCdypvt <= BSCbase + 0.5",
                  ("squash_dypvt", "squash_base"),
                  lambda d, apps: _mean(d["squash_dypvt"], apps)
                  <= _mean(d["squash_base"], apps) + 0.5),
            Claim("7.2", "the mean private write set is larger than the write set",
                  ("priv_write_set", "write_set"),
                  lambda d, apps: _mean(d["priv_write_set"], apps)
                  > _mean(d["write_set"], apps)),
            Claim("7.2", "pinned speculative writes are never displaced",
                  ("spec_write_disp_per_100k",),
                  lambda d, apps: all(
                      v == 0 for v in d["spec_write_disp_per_100k"].values()
                  )),
            Claim("7.2", "Private Buffer supplies are rare: mean < 200 per 1k commits",
                  ("priv_buffer_per_1k",),
                  lambda d, apps: _mean(d["priv_buffer_per_1k"], apps) < 200),
            Claim("7.2", "radix squashes: BSCdypvt >= BSCexact (if radix ran)",
                  ("squash_dypvt", "squash_exact"),
                  lambda d, apps: "radix" not in apps
                  or d["squash_dypvt"]["radix"] >= d["squash_exact"]["radix"]),
        ),
    ),
    "table4": Experiment(
        key="table4",
        paper_artifact="Table 4",
        description="Commit/coherence operations: signature-expansion "
        "lookups, unnecessary lookups/updates, nodes per W signature, "
        "arbiter occupancy, RSig effectiveness, empty-W commits.",
        render=table4,
        claims=(
            Claim("7.3", "the arbiter is no bottleneck: mean pending W signatures < 2",
                  ("pending_w_sigs",),
                  lambda d, apps: _mean(d["pending_w_sigs"], apps) < 2.0),
            Claim("7.3", "the W list is non-empty < 75% of the time",
                  ("nonempty_w_list_pct",),
                  lambda d, apps: _mean(d["nonempty_w_list_pct"], apps) < 75.0),
            Claim("7.3", "RSig: < 60% of commits need the R signature",
                  ("r_sig_required_pct",),
                  lambda d, apps: _mean(d["r_sig_required_pct"], apps) < 60.0),
            Claim("7.3", "private-data filtering: > 20% of commits have an empty W",
                  ("empty_w_sig_pct",),
                  lambda d, apps: _mean(d["empty_w_sig_pct"], apps) > 20.0),
            Claim("7.3", "empty W is more common in SPLASH-2 than in the "
                  "commercial codes (if both ran)",
                  ("empty_w_sig_pct",), _splash_over_commercial),
            Claim("7.3", "signature expansion: mean < 60 lookups per commit",
                  ("lookups_per_commit",),
                  lambda d, apps: _mean(d["lookups_per_commit"], apps) < 60.0),
            Claim("7.3", "unnecessary updates <= unnecessary lookups + 1%",
                  ("unnecessary_updates_pct", "unnecessary_lookups_pct"),
                  lambda d, apps: _mean(d["unnecessary_updates_pct"], apps)
                  <= _mean(d["unnecessary_lookups_pct"], apps) + 1.0),
        ),
    ),
    "figure10": Experiment(
        key="figure10",
        paper_artifact="Figure 10",
        description="BSCdypvt with 1000/2000/4000-instruction chunks plus "
        "a 4000-instruction exact-signature run.",
        render=_sized(figure10),
        claims=(
            Claim("7.1", "1000-instruction chunks: geometric mean > 0.75 of RC",
                  ("1000",), lambda s, apps: _gm(s, "1000", apps) > 0.75),
            Claim("7.1", "4000-instruction chunks: geometric mean > 0.55 of RC",
                  ("4000",), lambda s, apps: _gm(s, "4000", apps) > 0.55),
            Claim("7.1", "larger chunks degrade or at best match: 4000 <= 1000 + 0.05",
                  ("4000", "1000"),
                  lambda s, apps: _gm(s, "4000", apps) <= _gm(s, "1000", apps) + 0.05),
            Claim("7.1", "the loss is aliasing: 4000-exact >= 4000 - 0.02",
                  ("4000-exact", "4000"),
                  lambda s, apps: _gm(s, "4000-exact", apps)
                  >= _gm(s, "4000", apps) - 0.02),
        ),
    ),
    "figure11": Experiment(
        key="figure11",
        paper_artifact="Figure 11",
        description="Interconnect traffic (Rd/Wr, RdSig, WrSig, Inv, "
        "Other) normalized to RC for RC, BSCexact, BSCdypvt without RSig, "
        "and BSCdypvt.",
        render=_sized(figure11),
        claims=(
            Claim("7.4", "BSCdypvt's traffic over RC's is between 0.9x and 1.6x",
                  ("R", "B"),
                  lambda b, apps: 0.9 < _traffic_overhead(b, apps) < 1.6),
            Claim("7.4", "RSig: RdSig traffic without it (N) exceeds with it (B)",
                  ("N", "B"),
                  lambda b, apps: _rdsig(b, "N", apps) > _rdsig(b, "B", apps)),
            Claim("7.4", "RC sends no WrSig traffic",
                  ("R",),
                  lambda b, apps: all(
                      b["R"][app].get("WrSig", 0.0) == 0.0 for app in apps
                  )),
            Claim("7.4", "BSCdypvt sends WrSig traffic on every app",
                  ("B",),
                  lambda b, apps: all(
                      b["B"][app].get("WrSig", 0.0) > 0.0 for app in apps
                  )),
        ),
    ),
}

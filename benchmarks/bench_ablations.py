"""Ablations of BulkSC design choices called out in DESIGN.md.

Not a paper figure — these quantify the design space the paper
discusses qualitatively (Sections 4.2.2, 4.2.3, 5.2, 6):

* RSig on/off — commit bandwidth.
* Signature size sweep — squash rate vs hardware cost.
* Private Buffer capacity sweep — overflow-induced W pollution.
* Central vs distributed arbiter (4 directories) — commit latency path.
"""

from dataclasses import replace

import pytest

from repro.harness.metrics import squashed_instruction_pct, total_traffic
from repro.harness.runner import SweepRunner, build_app_workload
from repro.harness.tables import render_generic
from repro.params import NAMED_CONFIGS, ArbiterTopology, bsc_dypvt
from repro.system import run_workload

ABLATION_APPS = ("barnes", "ocean", "radix")


def test_rsig_bandwidth_ablation(benchmark, bench_instructions, bench_seed):
    def run():
        rows = []
        for rsig in (True, False):
            runner = SweepRunner(
                bench_instructions,
                bench_seed,
                config_overrides={
                    "BSCdypvt": lambda cfg, r=rsig: cfg.with_bulksc(
                        rsig_optimization=r
                    )
                },
            )
            for app in ABLATION_APPS:
                result = runner.result("BSCdypvt", app)
                rows.append(
                    (
                        app,
                        "on" if rsig else "off",
                        int(total_traffic(result)),
                        int(result.traffic_bytes["RdSig"]),
                    )
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_generic(["app", "RSig", "total_bytes", "rdsig_bytes"], rows))
    by_key = {(app, rsig): (total, rdsig) for app, rsig, total, rdsig in rows}
    for app in ABLATION_APPS:
        assert by_key[(app, "on")][1] <= by_key[(app, "off")][1]


def test_signature_size_ablation(benchmark, bench_instructions, bench_seed):
    def run():
        rows = []
        for bits in (512, 1024, 2048, 4096):
            runner = SweepRunner(
                bench_instructions,
                bench_seed,
                config_overrides={
                    "BSCdypvt": lambda cfg, b=bits: cfg.with_signature(size_bits=b)
                },
            )
            for app in ABLATION_APPS:
                result = runner.result("BSCdypvt", app)
                rows.append((app, bits, round(squashed_instruction_pct(result), 2)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_generic(["app", "sig_bits", "squashed_pct"], rows))
    # Bigger signatures never make aliasing squashes meaningfully worse.
    by_app = {}
    for app, bits, squash in rows:
        by_app.setdefault(app, {})[bits] = squash
    for app, col in by_app.items():
        assert col[4096] <= col[512] + 2.0


def test_private_buffer_capacity_ablation(benchmark, bench_instructions, bench_seed):
    def run():
        rows = []
        for capacity in (4, 12, 24, 48):
            runner = SweepRunner(
                bench_instructions,
                bench_seed,
                config_overrides={
                    "BSCdypvt": lambda cfg, c=capacity: cfg.with_bulksc(
                        private_buffer_lines=c
                    )
                },
            )
            for app in ("barnes", "water-ns"):
                result = runner.result("BSCdypvt", app)
                overflows = sum(
                    result.stat(f"proc{p}.private_buffer_overflows")
                    for p in range(8)
                )
                rows.append((app, capacity, int(overflows)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_generic(["app", "buffer_lines", "overflows"], rows))
    # The paper: ~24 entries is typically enough.
    for app, capacity, overflows in rows:
        if capacity >= 24:
            assert overflows <= 200


def test_naive_vs_advanced_commit_ablation(benchmark, bench_instructions, bench_seed):
    """Section 3.2.1's naive fully-serialized commits vs the advanced
    overlapping design.  The advanced design should never lose, and wins
    where commits are frequent."""

    def run():
        rows = []
        for naive in (False, True):
            runner = SweepRunner(
                bench_instructions,
                bench_seed,
                config_overrides={
                    "BSCdypvt": lambda cfg, n=naive: cfg.with_bulksc(
                        serialize_commits=n
                    )
                },
            )
            for app in ABLATION_APPS:
                result = runner.result("BSCdypvt", app)
                rows.append(
                    (
                        app,
                        "naive" if naive else "advanced",
                        round(result.cycles),
                        int(result.stat("commit.denials")),
                    )
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_generic(["app", "commit_mode", "cycles", "denials"], rows))
    by_key = {(app, mode): cycles for app, mode, cycles, __ in rows}
    for app in ABLATION_APPS:
        assert by_key[(app, "advanced")] <= by_key[(app, "naive")] * 1.05


def test_mesh_topology_ablation(benchmark, bench_instructions, bench_seed):
    """Run BulkSC on the 2D-mesh interconnect and report link pressure.

    Not a paper figure: the paper assumes a generic unloaded network; the
    mesh variant shows where commit traffic (signatures, invalidations)
    physically flows and what it adds to the bisection load.
    """
    from repro.interconnect.mesh import MeshNetwork

    def run():
        rows = []
        for config_name in ("RC", "BSCdypvt"):
            # The link counters live on the machine, which a SweepRunner's
            # cached results do not keep: run each cell directly.
            config = replace(
                NAMED_CONFIGS[config_name](seed=bench_seed), network_topology="mesh"
            ).validate()
            for app in ("barnes", "ocean"):
                workload = build_app_workload(app, config, bench_instructions, bench_seed)
                result = run_workload(
                    config, workload.programs, workload.address_space, record_history=False
                )
                net = result.machine.coherence.network
                assert isinstance(net, MeshNetwork)
                rows.append(
                    (
                        app,
                        config_name,
                        int(net.total_link_bytes()),
                        int(net.bisection_bytes()),
                    )
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        render_generic(
            ["app", "config", "link_bytes", "bisection_bytes"], rows
        )
    )
    by_key = {(a, c): (l, b) for a, c, l, b in rows}
    for app in ("barnes", "ocean"):
        rc_link, __ = by_key[(app, "RC")]
        bulk_link, __ = by_key[(app, "BSCdypvt")]
        # BulkSC adds signature traffic but stays the same order of magnitude.
        assert bulk_link < rc_link * 2.0


def test_distributed_arbiter_ablation(benchmark, bench_instructions, bench_seed):
    def run():
        rows = []
        for topology in ("central", "distributed"):
            def override(cfg, topo=topology):
                if topo == "central":
                    return cfg
                cfg = replace(cfg, num_directories=4)
                return cfg.with_bulksc(
                    arbiter_topology=ArbiterTopology.DISTRIBUTED
                )

            for app in ("barnes", "ocean"):
                cfg = override(bsc_dypvt(seed=bench_seed)).validate()
                workload = build_app_workload(app, cfg, bench_instructions, bench_seed)
                result = run_workload(
                    cfg, workload.programs, workload.address_space,
                    record_history=False,
                )
                g_arb = result.stat("commit.g_arbiter_transactions")
                rows.append((app, topology, round(result.cycles), int(g_arb)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_generic(["app", "arbiter", "cycles", "g_arbiter_txns"], rows))
    by_key = {(app, topo): cycles for app, topo, cycles, __ in rows}
    for app in ("barnes", "ocean"):
        ratio = by_key[(app, "distributed")] / by_key[(app, "central")]
        assert 0.7 < ratio < 1.4  # same ballpark; commits mostly local

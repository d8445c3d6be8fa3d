"""Ablations of BulkSC design choices called out in DESIGN.md.

Not a paper figure — these quantify the design space the paper
discusses qualitatively (Sections 4.2.2, 4.2.3, 5.2, 6):

* RSig on/off — commit bandwidth.
* Signature size sweep — squash rate vs hardware cost.
* Private Buffer capacity sweep — overflow-induced W pollution.
* Naive (Section 3.2.1 serialized) vs advanced commit.
* Central vs distributed arbiter (4 directories) — commit latency path.
* The 2D mesh interconnect — where commit traffic physically flows.
"""

from dataclasses import replace

import pytest

from repro.harness.metrics import squashed_instruction_pct
from repro.harness.runner import SweepRunner, build_app_workload
from repro.params import NAMED_CONFIGS, ArbiterTopology, bsc_dypvt
from repro.system import run_workload

INSTRUCTIONS = 8000
SEED = 0
ABLATION_APPS = ("barnes", "ocean", "radix")


def test_rsig_bandwidth_ablation():
    rdsig = {}
    for rsig in (True, False):
        runner = SweepRunner(
            INSTRUCTIONS,
            SEED,
            config_overrides={
                "BSCdypvt": lambda cfg, r=rsig: cfg.with_bulksc(rsig_optimization=r)
            },
        )
        for app in ABLATION_APPS:
            result = runner.result("BSCdypvt", app)
            rdsig[(app, rsig)] = int(result.traffic_bytes["RdSig"])
    for app in ABLATION_APPS:
        assert rdsig[(app, True)] <= rdsig[(app, False)]


def test_signature_size_ablation():
    by_app = {}
    for bits in (512, 1024, 2048, 4096):
        runner = SweepRunner(
            INSTRUCTIONS,
            SEED,
            config_overrides={
                "BSCdypvt": lambda cfg, b=bits: cfg.with_signature(size_bits=b)
            },
        )
        for app in ABLATION_APPS:
            result = runner.result("BSCdypvt", app)
            by_app.setdefault(app, {})[bits] = round(squashed_instruction_pct(result), 2)
    # Bigger signatures never make aliasing squashes meaningfully worse.
    for col in by_app.values():
        assert col[4096] <= col[512] + 2.0


def test_private_buffer_capacity_ablation():
    for capacity in (4, 12, 24, 48):
        runner = SweepRunner(
            INSTRUCTIONS,
            SEED,
            config_overrides={
                "BSCdypvt": lambda cfg, c=capacity: cfg.with_bulksc(
                    private_buffer_lines=c
                )
            },
        )
        for app in ("barnes", "water-ns"):
            result = runner.result("BSCdypvt", app)
            overflows = sum(
                result.stat(f"proc{p}.private_buffer_overflows") for p in range(8)
            )
            # The paper: ~24 entries is typically enough.
            if capacity >= 24:
                assert overflows <= 200


def test_naive_vs_advanced_commit_ablation():
    """Section 3.2.1's naive fully-serialized commits vs the advanced
    overlapping design.  The advanced design should never lose, and wins
    where commits are frequent."""
    cycles = {}
    for naive in (False, True):
        runner = SweepRunner(
            INSTRUCTIONS,
            SEED,
            config_overrides={
                "BSCdypvt": lambda cfg, n=naive: cfg.with_bulksc(serialize_commits=n)
            },
        )
        for app in ABLATION_APPS:
            cycles[(app, naive)] = round(runner.result("BSCdypvt", app).cycles)
    for app in ABLATION_APPS:
        assert cycles[(app, False)] <= cycles[(app, True)] * 1.05


@pytest.mark.parametrize("instructions", [1500, INSTRUCTIONS])
def test_mesh_topology_ablation(instructions):
    """Run BulkSC on the 2D-mesh interconnect and compare link pressure.

    Not a paper figure: the paper assumes a generic unloaded network; the
    mesh variant shows where commit traffic (signatures, invalidations)
    physically flows.  It reads the live machine's network, so a removed
    field breaks it.
    """
    from repro.interconnect.mesh import MeshNetwork

    link_bytes = {}
    for config_name in ("RC", "BSCdypvt"):
        # The link counters live on the machine, which a SweepRunner's
        # cached results do not keep: run each cell directly.
        config = replace(
            NAMED_CONFIGS[config_name](seed=SEED), network_topology="mesh"
        ).validate()
        for app in ("barnes", "ocean"):
            workload = build_app_workload(app, config, instructions, SEED)
            result = run_workload(
                config, workload.programs, workload.address_space, record_history=False
            )
            net = result.machine.coherence.network
            assert isinstance(net, MeshNetwork)
            assert net.bisection_bytes() >= 0
            link_bytes[(app, config_name)] = int(net.total_link_bytes())
    for app in ("barnes", "ocean"):
        # BulkSC adds signature traffic but stays the same order of magnitude.
        assert link_bytes[(app, "BSCdypvt")] < link_bytes[(app, "RC")] * 2.0


def test_distributed_arbiter_ablation():
    cycles = {}
    for topology in ("central", "distributed"):
        cfg = bsc_dypvt(seed=SEED)
        if topology == "distributed":
            cfg = replace(cfg, num_directories=4).with_bulksc(
                arbiter_topology=ArbiterTopology.DISTRIBUTED
            )
        cfg = cfg.validate()
        for app in ("barnes", "ocean"):
            workload = build_app_workload(app, cfg, INSTRUCTIONS, SEED)
            result = run_workload(
                cfg, workload.programs, workload.address_space, record_history=False
            )
            cycles[(app, topology)] = round(result.cycles)
    for app in ("barnes", "ocean"):
        ratio = cycles[(app, "distributed")] / cycles[(app, "central")]
        assert 0.7 < ratio < 1.4  # same ballpark; commits mostly local

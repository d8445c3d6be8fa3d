"""BulkSC: Bulk Enforcement of Sequential Consistency — reproduction.

A from-scratch, cycle-approximate multiprocessor simulator implementing
the BulkSC architecture (Ceze, Tuck, Montesinos, Torrellas — ISCA 2007)
together with the SC, RC, and SC++ baselines it is evaluated against.

Quickstart::

    from repro import run_workload, bsc_dypvt, rc_config
    from repro.workloads import splash2_workload

    config = bsc_dypvt()
    workload = splash2_workload("barnes", config)
    result = run_workload(config, workload.programs, workload.address_space)
    print(result.cycles, result.stats["commit.grants"])

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.

The configuration names are plain imports.  ``Machine``, ``RunResult``
and ``run_workload`` are loaded from :mod:`repro.system` on first
access, so a process that never simulates (a served component, the
static analyzer) never imports the simulator.
"""

from repro.params import (
    ArbiterTopology,
    BaselineConfig,
    BulkSCConfig,
    CacheGeometry,
    ConsistencyModelKind,
    MemoryConfig,
    NAMED_CONFIGS,
    PrivateDataMode,
    ProcessorConfig,
    SignatureConfig,
    SystemConfig,
    bsc_base,
    bsc_dypvt,
    bsc_exact,
    bsc_stpvt,
    paper_config,
    rc_config,
    sc_config,
    scpp_config,
    tso_config,
)
__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SystemConfig",
    "ProcessorConfig",
    "MemoryConfig",
    "CacheGeometry",
    "BulkSCConfig",
    "BaselineConfig",
    "SignatureConfig",
    "ConsistencyModelKind",
    "PrivateDataMode",
    "ArbiterTopology",
    "NAMED_CONFIGS",
    "paper_config",
    "bsc_base",
    "bsc_dypvt",
    "bsc_stpvt",
    "bsc_exact",
    "sc_config",
    "rc_config",
    "tso_config",
    "scpp_config",
    # running
    "Machine",
    "RunResult",
    "run_workload",
]

#: Names served from :mod:`repro.system` on first access (PEP 562).
_SYSTEM_NAMES = frozenset({"Machine", "RunResult", "run_workload"})


def __getattr__(name: str):
    if name in _SYSTEM_NAMES:
        from repro import system

        value = getattr(system, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Static per-component ordering contracts with a compositional SC proof.

The package decomposes the paper's SC argument the way RealityCheck
decomposes memory-consistency verification: each component (arbiter,
BDM, DirBDM, network, recovery) carries a declarative ordering contract
checked *locally* against its slice of a recorded trace, and a
composition obligation replays only the interface events to certify
that the contracts jointly imply end-to-end SC.  A Qadeer-style bounded
model checker sweeps real simulator runs of the commit path (litmus
tests × BulkSC configs × arbiter crashes × forced denials) to prove the
contract specs themselves are neither vacuous nor violated, and that
each catches a seeded bug patched into its own component.

Entry points:

* :func:`repro.contracts.checker.check_trace` — all verdicts for one trace;
* :func:`repro.contracts.modelcheck.verify_contracts` — the spec check over real runs;
* ``python -m repro analyze contracts`` — the CLI
  (:mod:`repro.analysis.cli`).

The package re-exports nothing: import names from the submodules.
"""

"""Static per-component ordering contracts with a compositional SC proof.

The package decomposes the paper's SC argument the way RealityCheck
decomposes memory-consistency verification: each component (arbiter,
BDM, DirBDM, network, recovery) carries a declarative ordering contract
checked *locally* against its slice of a recorded trace, and a
composition obligation replays only the interface events to certify
that the contracts jointly imply end-to-end SC.  A Qadeer-style bounded
model checker exhaustively enumerates the commit protocol at a tiny
configuration to prove the contract specs themselves are neither
vacuous nor violated.

Entry points:

* :func:`repro.contracts.checker.check_trace` — all verdicts for one trace;
* :func:`repro.contracts.modelcheck.verify_contracts` — the static spec check;
* ``python -m repro analyze contracts`` — the CLI
  (:mod:`repro.analysis.cli`).

The package re-exports nothing: import names from the submodules.
"""

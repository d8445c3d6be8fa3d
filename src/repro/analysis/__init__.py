"""Static analysis of workload programs and of the simulator itself.

Three program-level passes share one analysis core
(:mod:`repro.analysis.footprint`):

* :mod:`repro.analysis.conflict_graph` — Shasha–Snir-style cross-thread
  conflict edges over the op-level IR, critical-cycle detection (which
  op pairs can participate in an SC-violating reordering), and static
  prediction of which chunk pairs will conflict under a chunking policy;
* :mod:`repro.analysis.races` — lockset + happens-before race
  classification of every conflicting access pair, with op-level
  witnesses;
* :mod:`repro.analysis.outcomes` — exhaustive SC-outcome enumeration
  for small programs, cross-checked against dynamic litmus runs.

A fourth pass looks inward: :mod:`repro.analysis.detlint` is an
AST-based determinism lint over the simulator's own sources (unordered
set iteration, unseeded ``random``, wall-clock reads, ...), because the
chaos subsystem's byte-identical-replay guarantee is only as strong as
the simulator's determinism.

Everything is surfaced through ``python -m repro analyze``
(:mod:`repro.analysis.cli`).
"""

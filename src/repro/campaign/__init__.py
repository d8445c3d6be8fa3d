"""Durable, resumable certification campaigns.

A *campaign* is the product this repo ships: thousands-to-millions of
independent (configuration, workload, seed, fault plan) simulation
cells, each certified by :func:`repro.verify.sc_checker`, whose merged
aggregate is the evidence that BulkSC's chunk-commit protocol preserves
SC under faults.  This package makes that evidence crash-tolerant:

* :mod:`repro.campaign.spec` — the pure-data campaign spec and its
  deterministic expansion parameters;
* :mod:`repro.campaign.queue` — spec → ordered cell queue, keyed by the
  :func:`repro.harness.runner.memo_key`-compatible cell key;
* :mod:`repro.campaign.store` — the append-only JSONL store with atomic
  checkpoint records and torn-tail tolerance;
* :mod:`repro.campaign.runner` — sharded execution over
  :func:`repro.harness.parallel.parallel_map` with per-cell timeouts,
  crash retries, serial degradation, and resume;
* :mod:`repro.campaign.report` — deterministic aggregates, progress and
  ETA rendering;
* :mod:`repro.campaign.cli` — ``python -m repro campaign
  run|status|resume|report``.

The invariant everything here serves: ``kill -9`` a campaign at any
instant, ``campaign resume``, and the final aggregate report is
bit-identical to the same campaign run uninterrupted.
"""

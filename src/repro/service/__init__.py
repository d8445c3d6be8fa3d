"""BulkSC as a crash-tolerant multi-process service.

The simulator enforces SC *in-process*: chunks commit through a central
arbiter, W signatures detect conflicts, and epoch/lease recovery
(PR 4) survives arbiter crashes.  This package deploys the very same
protocol across real OS processes speaking length-prefixed JSON frames
over TCP:

* :mod:`~repro.service.wire` / :mod:`~repro.service.transport` — the
  frame codec and a reconnecting client with per-request timeouts and
  exponential backoff with jitter.
* :mod:`~repro.service.arbiter_server` — an arbiter process wrapping
  :class:`repro.core.arbiter.Arbiter`: stale-epoch requests are rejected
  (writer fencing), a standby takes over on missed heartbeats, and
  service stays serial-degraded while RECONSTRUCTING.
* :mod:`~repro.service.node` — replica processes hosting client
  sessions as simulated processors: a client batch is a chunk, W/R key
  signatures drive conflict detection, and committed writes propagate
  in commit-sequence order.
* :mod:`~repro.service.faultproxy` — a frame-aware TCP proxy injecting
  :class:`~repro.faults.plan.FaultKind` perturbations (drop / delay /
  dup / partition) on the wire.
* :mod:`~repro.service.records` / :mod:`~repro.service.certify` — every
  process records v2 replay events; after a run the merged history is
  certified by :mod:`repro.verify.sc_checker` and all five component
  contracts (:mod:`repro.contracts`), plus a zero-acknowledged-write-loss
  audit against the client-side ack manifest.
* :mod:`~repro.service.bench` — the open-loop traffic generator reusing
  :mod:`repro.workloads.commercial` profiles, behind ``repro service
  bench``.

Entry points: ``python -m repro serve`` and ``python -m repro service``
(see :mod:`~repro.service.cli`).
"""

from repro.service.cluster import ClusterConfig, Endpoint, pick_free_ports

__all__ = ["ClusterConfig", "Endpoint", "pick_free_ports"]

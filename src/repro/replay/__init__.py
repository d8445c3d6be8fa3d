"""Deterministic record/replay, schedule exploration, and minimization.

Every simulation in this repo is a pure function of ``(seed, config,
workload, fault plan)``, which makes three powerful tools cheap:

* **record** (:mod:`repro.replay.recorder`) — run a workload with a
  :class:`~repro.replay.recorder.TraceRecorder` attached and save every
  scheduling decision and protocol transition as a versioned JSONL trace
  (:mod:`repro.replay.schema`);
* **replay** (:mod:`repro.replay.replayer`) — re-drive the machine from
  a trace's header and assert, record by record, that the execution does
  not diverge, with a precise first-divergence diagnostic;
* **explore** (:mod:`repro.replay.explorer`) — sweep seeds, thread
  staggers, and arbiter commit-order perturbations hunting for final
  states outside the static SC enumeration of
  :mod:`repro.analysis.outcomes`;
* **minimize** (:mod:`repro.replay.minimizer`) — delta-debug a failing
  trace's fault schedule (and thread set) down to a minimal, still
  failing, rerunnable trace.

The CLI surface is ``python -m repro replay record|run|explore|minimize``.
"""

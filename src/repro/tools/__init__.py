"""Analysis and debugging tools layered on top of the simulator.

* :mod:`repro.tools.chunk_trace` — record and render per-processor chunk
  lifecycle timelines (start → close → grant → commit / squash).
* :mod:`repro.tools.report` — turn a :class:`~repro.system.RunResult`
  into a human-readable summary.
* :mod:`repro.tools.fault_trace` — render the injected-fault log of a
  faulted run.

The package re-exports nothing, so importing one tool loads only that
tool: import names from the submodules.
"""

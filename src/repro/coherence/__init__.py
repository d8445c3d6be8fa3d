"""Coherence substrate: directories, the DirBDM, and the MESI controller.

* :mod:`repro.coherence.directory` — full bit-vector directory modules
  (optionally backed by a bounded directory cache).
* :mod:`repro.coherence.dirbdm` — the per-directory Bulk module that
  expands committing W signatures, builds invalidation lists, applies the
  paper's Table 1 case analysis, and read-disables in-flight lines.
* :mod:`repro.coherence.protocol` — the demand-access controller shared by
  every consistency model: L1/L2 lookup, directory transitions, network
  traffic, and latency computation.
"""

from repro.coherence.directory import DirectoryEntry, DirectoryModule
from repro.coherence.directory_cache import DirectoryCache
from repro.coherence.dirbdm import DirBDM, ExpansionOutcome
from repro.coherence.protocol import CoherenceController

__all__ = [
    "DirectoryEntry",
    "DirectoryModule",
    "DirectoryCache",
    "DirBDM",
    "ExpansionOutcome",
    "CoherenceController",
]

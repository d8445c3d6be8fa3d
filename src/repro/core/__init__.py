"""BulkSC — the paper's primary contribution.

* :mod:`repro.core.chunk` — the chunk abstraction: speculative write
  buffer, R/W/Wpriv signatures, op log, lifecycle states.
* :mod:`repro.core.bdm` — the per-processor Bulk Disambiguation Module:
  signature pairs for in-flight chunks, bulk disambiguation against
  committing W signatures, bulk invalidation, the Private Buffer.
* :mod:`repro.core.chunking` — chunk-boundary policy: instruction-count
  targets, cache-set overflow, exponential shrink after squashes, and the
  pre-arbitration forward-progress fallback.
* :mod:`repro.core.arbiter` — one address range's arbiter with the RSig
  bandwidth optimization; :mod:`repro.core.distributed_arbiter` is every
  machine's front end over those range arbiters (one range when central),
  with a G-arbiter for multi-range commits.
* :mod:`repro.core.private_data` — statically- and dynamically-private
  data handling (Wpriv, Private Buffer).
* :mod:`repro.core.commit` — the commit transaction: arbitration message
  flows (Figure 7/8), directory expansion, invalidation forwarding,
  acknowledgement collection, read re-enabling.
* :mod:`repro.core.driver` — the BulkSC processor driver: chunked
  execution with full reordering/overlap inside and across chunks.
"""

from repro.core.arbiter import Arbiter, ArbitrationDecision
from repro.core.bdm import BDM
from repro.core.chunk import Chunk, ChunkState
from repro.core.chunking import ChunkingPolicy
from repro.core.distributed_arbiter import DistributedArbiter, GlobalArbiter
from repro.core.driver import BulkSCDriver
from repro.core.private_data import PrivateBuffer

__all__ = [
    "Chunk",
    "ChunkState",
    "BDM",
    "ChunkingPolicy",
    "Arbiter",
    "ArbitrationDecision",
    "DistributedArbiter",
    "GlobalArbiter",
    "PrivateBuffer",
    "BulkSCDriver",
]

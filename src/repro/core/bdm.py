"""The per-processor Bulk Disambiguation Module (paper Sections 2.2, 4.1).

The BDM owns everything speculative so the cache doesn't have to:

* a pair of R/W signatures (plus Wpriv) per in-flight chunk, allocated
  when the chunk starts and cleared at commit/squash;
* **bulk disambiguation**: intersect an incoming committing W against
  every local active chunk's R and W — non-empty means squash;
* **bulk invalidation**: use signature expansion over the local cache to
  invalidate the lines a signature names, without traversing the cache;
* a *pinned* predicate that blocks victimization of speculatively-written
  lines (membership in any active W — conservatively including aliases);
* the Private Buffer and Wpriv membership checks for the
  dynamically-private data optimization (Section 5.2);
* the forward log that closes the signature-update vulnerability window
  for cross-chunk forwarding (Section 4.1.2) — modeled as bookkeeping,
  with the commit gate it implies enforced by the driver.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.chunk import Chunk
from repro.core.private_data import PrivateBuffer
from repro.engine.stats import StatsRegistry
from repro.memory.cache import SetAssocCache
from repro.signatures.base import Signature, collides, set_indices
from repro.signatures.factory import SignatureFactory


class BDM:
    """Bulk Disambiguation Module for one processor."""

    def __init__(
        self,
        proc: int,
        cache: SetAssocCache,
        signature_factory: SignatureFactory,
        private_buffer_capacity: int = 24,
        stats: Optional[StatsRegistry] = None,
    ):
        self.proc = proc
        self.cache = cache
        self.factory = signature_factory
        self.stats = stats if stats is not None else StatsRegistry("bdm")
        self.private_buffer = PrivateBuffer(private_buffer_capacity)
        #: Chunks with live signatures, oldest first (owned by the driver;
        #: registered here so disambiguation and pinning can see them).
        #: The BulkSC run loop reads it in place to forward loads.
        self.chunks: List[Chunk] = []
        # Cross-chunk forward log: (line, destination chunk id) entries not
        # yet reflected in the destination's R signature.
        self._forward_log: List[Tuple[int, int]] = []
        # line -> packed Bloom mask for this machine's geometry; pure, so
        # never invalidated (used by the pin hot path below).
        self._pin_masks: dict = {}

    # ------------------------------------------------------------------
    # Chunk registration
    # ------------------------------------------------------------------
    def new_signature_triple(self) -> Tuple[Signature, Signature, Signature]:
        """Fresh (R, W, Wpriv) signatures for a new chunk."""
        return self.factory.new(), self.factory.new(), self.factory.new()

    def register_chunk(self, chunk: Chunk) -> None:
        self.chunks.append(chunk)

    def deregister_chunk(self, chunk: Chunk) -> None:
        if chunk in self.chunks:
            self.chunks.remove(chunk)

    def active_chunks(self) -> List[Chunk]:
        return list(self.chunks)

    # ------------------------------------------------------------------
    # Bulk disambiguation (Section 2.2)
    # ------------------------------------------------------------------
    def disambiguate(self, w_commit: Signature) -> List[Chunk]:
        """Chunks that collide with a committing remote chunk.

        The predicate is ``(Wc ∩ R) ∪ (Wc ∩ W) ≠ ∅``; the W∩W term handles
        partial cache-line updates.  Only *active* chunks participate —
        granted chunks are already serialized by the arbiter.  Uses the
        allocation-free :func:`~repro.signatures.base.collides`
        kernel — one packed AND per term, no intermediate signatures.
        """
        colliding: List[Chunk] = []
        for chunk in self.chunks:
            if not chunk.is_active:
                continue
            if collides(w_commit, chunk.r_sig, chunk.w_sig):
                colliding.append(chunk)
        return colliding

    # ------------------------------------------------------------------
    # Bulk invalidation via signature expansion
    # ------------------------------------------------------------------
    def bulk_invalidate(
        self,
        signature: Signature,
        true_lines: Optional[Iterable[int]] = None,
    ) -> Tuple[List[int], int]:
        """Invalidate every cached line the signature may name.

        Returns ``(invalidated_line_addrs, unnecessary_count)``, where
        unnecessary invalidations are aliasing casualties (line invalidated
        but not in the true address set) — the paper's "Extra Cache Invs".
        """
        truth = set(true_lines) if true_lines is not None else None
        cache = self.cache
        candidates: List[int] = []
        for set_index in set_indices(signature.decode_sets(cache.num_sets)):
            for line in cache.lines_in_set(set_index):
                candidates.append(line.line_addr)
        to_invalidate = signature.filter_members(candidates)
        unnecessary = 0
        for line_addr in to_invalidate:
            self.cache.invalidate(line_addr)
            if truth is not None and line_addr not in truth:
                unnecessary += 1
        self.stats.bump(f"bdm{self.proc}.bulk_invalidations", len(to_invalidate))
        self.stats.bump(f"bdm{self.proc}.unnecessary_invalidations", unnecessary)
        return to_invalidate, unnecessary

    # ------------------------------------------------------------------
    # Pinning: speculatively-written lines cannot be displaced
    # ------------------------------------------------------------------
    def pinned(self, line_addr: int) -> bool:
        """True if any active chunk may have speculatively written the line.

        Wpriv lines are pinned too: their cached version is ahead of the
        committed image until the chunk commits.
        """
        for chunk in self.chunks:
            if not chunk.is_active:
                continue
            w_sig = chunk.w_sig
            bits = getattr(w_sig, "bits", None)
            if bits is None:
                # Exact (set-backed) signatures: no mask fast path.
                if w_sig.member(line_addr) or chunk.wpriv_sig.member(line_addr):
                    return True
                continue
            mask = self._pin_masks.get(line_addr)
            if mask is None:
                mask = w_sig.mask_of(line_addr)
                self._pin_masks[line_addr] = mask
            if (bits & mask) == mask or (chunk.wpriv_sig.bits & mask) == mask:
                return True
        return False

    # ------------------------------------------------------------------
    # Dynamically-private data (Section 5.2)
    # ------------------------------------------------------------------
    def wpriv_member(self, line_addr: int) -> Optional[Chunk]:
        """Membership check run on every external access to the cache.

        Returns the chunk whose Wpriv (possibly falsely) matches, oldest
        first, or None.  A hit makes the caller consult the Private Buffer.
        """
        for chunk in self.chunks:
            if chunk.is_active and chunk.wpriv_sig.member(line_addr):
                return chunk
        return None

    # ------------------------------------------------------------------
    # Forward log (Section 4.1.2)
    # ------------------------------------------------------------------
    def log_forward(self, line_addr: int, to_chunk_id: int) -> None:
        """A load in a successor chunk consumed a predecessor's store."""
        self._forward_log.append((line_addr, to_chunk_id))
        self.stats.bump(f"bdm{self.proc}.forwards")

    def drain_forward_log(self) -> int:
        """R-signature updates caught up; commit arbitration may begin.

        In hardware the predecessor polls until this buffer is empty; the
        simulator's signature updates are immediate, so draining models
        the gate without added latency (the updates are already applied).
        """
        drained = len(self._forward_log)
        self._forward_log.clear()
        return drained

    @property
    def forward_log_empty(self) -> bool:
        return not self._forward_log

"""Address signatures and bulk operations (paper Section 2.2).

A signature is a superset encoding of a set of line addresses.  Two
implementations share one interface:

* :class:`~repro.signatures.bloom.BloomSignature` — the hardware-faithful
  banked Bloom filter (~2 Kbit, permute-based hashing) used by every BulkSC
  configuration except BSCexact.  It holds only its packed ``bits``.
* :class:`~repro.signatures.exact.ExactSignature` — a "magic" alias-free
  signature used to isolate the cost of aliasing (BSCexact in the paper).

The primitive operations of Figure 2(b) — intersection, union, emptiness,
membership, and decoding into cache sets — are methods on the signatures.
The disambiguation predicate built from them is
:func:`~repro.signatures.base.collides`.
"""

from repro.signatures.base import Signature, collides
from repro.signatures.bloom import INDEX_CACHE, BloomSignature, IndexCache
from repro.signatures.compression import compressed_size_bits, compressed_size_bytes
from repro.signatures.exact import ExactSignature
from repro.signatures.factory import SignatureFactory

__all__ = [
    "Signature",
    "BloomSignature",
    "ExactSignature",
    "SignatureFactory",
    "IndexCache",
    "INDEX_CACHE",
    "collides",
    "compressed_size_bits",
    "compressed_size_bytes",
]

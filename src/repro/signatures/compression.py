"""Signature compression for network transfer.

The paper states that ~2 Kbit signatures are compressed to ~350 bits when
communicated.  We model the compressed encoding the way simple hardware
would: choose per message between

* a *sparse* encoding — a count plus the positions of set bits (each
  position needs ``log2(size_bits)`` bits), and
* the *raw* bitmap,

whichever is smaller.  An empty signature compresses to a single flag
byte.  Traffic accounting (Figure 11) charges the resulting byte size.
"""

from __future__ import annotations

import math

from repro.signatures.base import Signature
from repro.signatures.bloom import BloomSignature
from repro.signatures.exact import ExactSignature

#: Size of the empty-signature encoding, in bits.
EMPTY_SIGNATURE_BITS = 8


def compressed_size_bits(signature: Signature) -> int:
    """Bits on the wire for ``signature`` under the sparse/raw encoding."""
    if signature.is_empty():
        return EMPTY_SIGNATURE_BITS
    if isinstance(signature, BloomSignature):
        size_bits = signature.size_bits
        set_bits = signature.popcount()
    elif isinstance(signature, ExactSignature):
        # Magic signature: charge what the equivalent Bloom transfer costs,
        # so BSCexact isolates aliasing, not bandwidth.
        size_bits = 2048
        set_bits = min(len(signature) * 4, size_bits)
    else:  # pragma: no cover - future signature kinds
        raise TypeError(f"unknown signature type {type(signature).__name__}")
    position_bits = max(1, int(math.ceil(math.log2(size_bits))))
    sparse_bits = 16 + set_bits * position_bits  # 16-bit count header
    return min(sparse_bits, size_bits) + EMPTY_SIGNATURE_BITS


def compressed_size_bytes(signature: Signature) -> int:
    """Bytes on the wire (rounded up) for ``signature``."""
    return (compressed_size_bits(signature) + 7) // 8

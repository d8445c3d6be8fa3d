"""Construction of signatures from configuration."""

from __future__ import annotations

from repro.params import SignatureConfig
from repro.signatures.base import Signature
from repro.signatures.bloom import BloomSignature
from repro.signatures.exact import ExactSignature


class SignatureFactory:
    """Creates signatures matching a :class:`~repro.params.SignatureConfig`.

    Every signature in one simulation comes from one factory, so all
    signatures are mutually compatible (same geometry or same exactness).
    """

    def __init__(self, config: SignatureConfig):
        config.validate()
        self.config = config

    def new(self) -> Signature:
        """A fresh empty signature."""
        if self.config.exact:
            return ExactSignature()
        return BloomSignature(self.config.size_bits, self.config.num_banks)

    def from_addresses(self, line_addrs) -> Signature:
        """A signature pre-populated with ``line_addrs``.

        Used, e.g., when a directory-cache displacement builds a one-line
        signature to broadcast for bulk disambiguation (Section 4.3.3).
        """
        signature = self.new()
        signature.insert_many(line_addrs)
        return signature

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "exact" if self.config.exact else "bloom"
        return f"<SignatureFactory {kind} {self.config.size_bits}b>"

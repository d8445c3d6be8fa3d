"""Deterministic random number generation.

Every stochastic choice in the simulator (workload generation, backoff
jitter) flows through :class:`DeterministicRng` so a (seed, config) pair
fully determines an experiment.  Sub-streams derived with :meth:`fork` are
independent of each other and of the order in which other streams are
consumed, which keeps workloads identical across consistency models.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(seed: int, label: str) -> int:
    """A seed that is a pure function of ``(seed, label)``, in every process.

    The derivation uses CRC32 rather than ``hash()`` because Python
    randomizes string hashing per process.  :meth:`DeterministicRng.fork`
    and the service layer's per-component ``random.Random`` streams both
    key their seeds through it.
    """
    digest = zlib.crc32(label.encode("utf-8"), seed & 0xFFFFFFFF)
    return (seed * 0x9E3779B1 + digest) & 0x7FFFFFFFFFFFFFFF


class DeterministicRng:
    """A seeded random stream with named, independent sub-streams.

    Every draw bumps :attr:`draws`, a monotonically increasing counter.
    Two executions that consumed a different number of draws have
    demonstrably diverged, so the counter is recorded in replay traces
    and livelock dumps: a divergence diagnostic can name the exact draw
    index where two executions split.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._random = random.Random(seed)
        #: Number of draws consumed from this stream so far.  Counts
        #: API-level calls (one per ``randint``/``choice``/... and one
        #: per Bernoulli trial of :meth:`geometric`), not underlying
        #: entropy bits; what matters is that equal executions produce
        #: equal counts.
        self.draws = 0

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent stream keyed by ``label``.

        Forking is a pure function of ``(self.seed, label)``
        (:func:`derive_seed`): it does not consume state from this
        stream, so call order cannot perturb downstream randomness.
        """
        return DeterministicRng(derive_seed(self.seed, label))

    # Thin wrappers over random.Random -------------------------------------
    def randint(self, lo: int, hi: int) -> int:
        self.draws += 1
        return self._random.randint(lo, hi)

    def random(self) -> float:
        self.draws += 1
        return self._random.random()

    def uniform(self, lo: float, hi: float) -> float:
        self.draws += 1
        return self._random.uniform(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        self.draws += 1
        return self._random.choice(seq)

    def shuffle(self, seq: List[T]) -> None:
        self.draws += 1
        self._random.shuffle(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        self.draws += 1
        return self._random.sample(seq, k)

    def expovariate(self, lambd: float) -> float:
        self.draws += 1
        return self._random.expovariate(lambd)

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials up to and including first success."""
        if not 0 < p <= 1:
            raise ValueError(f"p must be in (0, 1], got {p}")
        count = 1
        while self.random() >= p:
            count += 1
        return count

    def zipf_index(self, n: int, alpha: float = 1.0) -> int:
        """Draw an index in ``[0, n)`` with a Zipf-like skew.

        Used by the commercial-workload generators to model hot shared
        structures (locks, counters) next to a long cold tail.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        # Inverse-CDF on the harmonic-weighted ranks, approximated with a
        # power transform which is accurate enough for workload shaping.
        u = self.random()
        idx = int(n * (u ** (1.0 + alpha)))
        return min(idx, n - 1)

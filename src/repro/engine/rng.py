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

    # Draws ----------------------------------------------------------------
    # randint and shuffle are the workload generator's hot draws, so they
    # run CPython's own algorithm (Random.randrange -> _randbelow_with_
    # getrandbits, Random.shuffle) on getrandbits directly instead of
    # through its four-frame call chain.  They consume the underlying
    # Mersenne Twister exactly as the stdlib does, draw for draw, so a
    # stream is the same whichever path drew from it.
    def randint(self, lo: int, hi: int) -> int:
        """A uniform int in ``[lo, hi]``, as ``random.Random.randint``."""
        self.draws += 1
        width = hi - lo + 1
        if width <= 0:
            raise ValueError(f"empty range for randint({lo}, {hi})")
        getrandbits = self._random.getrandbits
        k = width.bit_length()
        r = getrandbits(k)
        while r >= width:  # rejection sampling, as _randbelow
            r = getrandbits(k)
        return lo + r

    def shuffle(self, seq: List[T]) -> None:
        """Shuffle ``seq`` in place, as ``random.Random.shuffle``.

        The draws depend only on ``len(seq)``, never on its items.
        """
        self.draws += 1
        getrandbits = self._random.getrandbits
        for i in range(len(seq) - 1, 0, -1):
            n = i + 1
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            seq[i], seq[j] = seq[j], seq[i]

    # Thin wrappers over random.Random -------------------------------------
    def random(self) -> float:
        self.draws += 1
        return self._random.random()

    def uniform(self, lo: float, hi: float) -> float:
        self.draws += 1
        return self._random.uniform(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        self.draws += 1
        return self._random.choice(seq)

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

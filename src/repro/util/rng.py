"""Deterministic random number generation.

Simulation runs must be reproducible: every stochastic choice (path
remapping, workload address streams, crash points) draws from a
:class:`DeterministicRNG` seeded explicitly.  The class wraps
:class:`random.Random` and adds helpers used throughout the package, plus
named substreams so independent components do not perturb each other's
sequences when one of them draws more numbers.
"""

from __future__ import annotations

import operator
import random
from array import array
from bisect import bisect_left
from functools import lru_cache, reduce
from itertools import accumulate
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRNG:
    """A seeded RNG with named, independent substreams.

    ``DeterministicRNG(42).substream("remap")`` always yields the same
    sequence regardless of how many draws other substreams performed.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        """The seed this stream was created with."""
        return self._seed

    def substream(self, name: str) -> "DeterministicRNG":
        """Derive an independent stream keyed by ``name``.

        Uses a stable hash (BLAKE2) — Python's builtin ``hash`` of strings
        is salted per process, which would silently break cross-run
        reproducibility of every simulation.
        """
        import hashlib

        digest = hashlib.blake2b(
            name.encode("utf-8"),
            key=self._seed.to_bytes(16, "little", signed=True)[:16],
            digest_size=8,
        ).digest()
        return DeterministicRNG(int.from_bytes(digest, "little"))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._random.randint(low, high)

    def randrange(self, stop: int) -> int:
        """Uniform integer in [0, stop)."""
        return self._random.randrange(stop)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(seq)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(seq)

    def sample(self, seq: Sequence[T], k: int) -> list:
        """k distinct elements drawn without replacement."""
        return self._random.sample(seq, k)

    def randbytes(self, n: int) -> bytes:
        """n uniformly random bytes."""
        return self._random.getrandbits(8 * n).to_bytes(n, "little") if n else b""

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) failures before the first success (>= 0)."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        count = 0
        while self._random.random() >= p:
            count += 1
        return count

    def zipf_index(self, n: int, alpha: float) -> int:
        """Draw an index in [0, n) with Zipf(alpha) popularity skew.

        Uses inverse-CDF sampling over the truncated Zipf distribution; the
        CDF is built once per (n, alpha) per process and shared by every
        instance (:func:`zipf_cdf`).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        cdf = zipf_cdf(n, alpha)
        # The last entry is 1.0 > u, so the search never needs to look past it.
        return bisect_left(cdf, self._random.random(), 0, n - 1)


@lru_cache(maxsize=8)
def zipf_cdf(n: int, alpha: float) -> array:
    """The truncated Zipf(alpha) CDF over [0, n), as flat doubles.

    Term ``i`` is ``1 / (i + 1) ** alpha``; the CDF accumulates the
    normalized terms left to right and forces the last entry to 1.0, so a
    draw ``u < 1`` always lands in range.  Callers must not mutate it.

    The total is a plain left-to-right sum: from Python 3.12 on the
    builtin ``sum`` of floats is compensated, which would move the last
    bits of the table (and so the draws) between interpreter versions.
    """
    weights = array("d", (1.0 / ((i + 1) ** alpha) for i in range(n)))
    total = reduce(operator.add, weights)
    cdf = array("d", accumulate(w / total for w in weights))
    cdf[-1] = 1.0
    return cdf

"""Seeded index source for the enumerators.

Two draws are supported. Pseudo-geometric: grow a bit width g while a coin
keeps landing on continue (probability 3/4, capped at 30 bits), then draw a
uniform index below 2^g, so small indices dominate but any index stays
reachable. Pseudo-uniform: a uniform index below a fixed bound. A source is
made for one of the two, and ``draws(n)`` yields its next n indices from one
generator, which binds the Mersenne Twister's methods once, so a draw makes
no Python method call of its own. Sequences are fully determined by the seed
and the number of indices taken: the first k indices of ``draws(n)`` are
``draws(k)``'s.
"""

from __future__ import annotations

import random
from typing import Iterator

GEOMETRIC_WIDTH_CAP = 30
GEOMETRIC_CONTINUE = 0.75
DEFAULT_UNIFORM_BOUND = 1 << 24


class IndexSource:
    def __init__(self, seed: int, dist: str = "geometric", uniform_bound: int = DEFAULT_UNIFORM_BOUND):
        self._rng = random.Random(seed)
        self.dist = dist
        self.uniform_bound = uniform_bound

    def draws(self, n: int) -> Iterator[int]:
        """The source's next ``n`` indices."""
        rng = self._rng
        if self.dist != "geometric":
            below, bound = rng.randrange, self.uniform_bound
            for _ in range(n):
                yield below(bound)
            return
        coin, bits = rng.random, rng.getrandbits
        for _ in range(n):
            g = 0
            while g < GEOMETRIC_WIDTH_CAP and coin() < GEOMETRIC_CONTINUE:
                g += 1
            # randrange(1 << g) without its checks: the same rejection loop
            # over g + 1 random bits, so the same index sequence
            bound = 1 << g
            x = bits(g + 1)
            while x >= bound:
                x = bits(g + 1)
            yield x


def derive_seed(master: int, index: int) -> int:
    """Stable per-form seed stream for non-deterministic (exploratory) mode."""
    return (master * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 + 1) % (1 << 64)

"""Seeded index source for the enumerators.

Two draws are supported. Pseudo-geometric: grow a bit width g while a coin
keeps landing on continue (probability 3/4, capped at 30 bits), then draw a
uniform index below 2^g, so small indices dominate but any index stays
reachable. Pseudo-uniform: a uniform index below a fixed bound. Sequences
are fully determined by the seed and call order.
"""

from __future__ import annotations

import random

GEOMETRIC_WIDTH_CAP = 30
GEOMETRIC_CONTINUE = 0.75
DEFAULT_UNIFORM_BOUND = 1 << 24


class IndexSource:
    def __init__(self, seed: int, uniform_bound: int = DEFAULT_UNIFORM_BOUND):
        self._rng = random.Random(seed)
        self.uniform_bound = uniform_bound

    def geometric(self) -> int:
        rng = self._rng
        coin = rng.random
        g = 0
        while g < GEOMETRIC_WIDTH_CAP and coin() < GEOMETRIC_CONTINUE:
            g += 1
        # randrange(1 << g) without its checks: the same rejection loop over
        # g + 1 random bits, so the same index sequence
        bound = 1 << g
        x = rng.getrandbits(g + 1)
        while x >= bound:
            x = rng.getrandbits(g + 1)
        return x

    def uniform(self) -> int:
        return self._rng.randrange(self.uniform_bound)


def derive_seed(master: int, index: int) -> int:
    """Stable per-form seed stream for non-deterministic (exploratory) mode."""
    return (master * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 + 1) % (1 << 64)

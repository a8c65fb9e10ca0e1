"""Deterministic pseudo-random numbers, identical on every platform.

The stdlib only guarantees cross-version stability for ``random.random``;
the integer helpers this package needs (bounded ints, rational grid points)
are built here on SplitMix64 so seeded runs are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator (Steele, Lea, Flood 2014); state is one 64-bit word."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, so there is no modulo bias."""
        if n <= 0:
            raise ValueError(f"need a positive range size, got {n}")
        limit = _MASK - (_MASK + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def fraction(self, denominator: int = 1 << 12) -> Fraction:
        """Uniform rational k/denominator with k in [0, denominator)."""
        return Fraction(self.below(denominator), denominator)

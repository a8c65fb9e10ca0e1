"""Seeded random lattice bases for experiments and round-trip tests."""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .enumeration import shortest_vector
from .errors import DependentRows, GenerationFailed
from .lattice import Lattice
from .rng import SplitMix64

MAX_ATTEMPTS = 1000


def random_lattice(seed: int, n: int, m: int, entry_bound: int = 9,
                   min_lambda1_sq=None) -> Lattice:
    """Random full-rank integer basis of m rows in Z^n, entries drawn
    uniformly from [-entry_bound, entry_bound]. Rank-deficient draws are
    rejected. When min_lambda1_sq is given, the basis is rescaled by the
    smallest integer that lifts the shortest vector past that bound. Same
    seed, same lattice, on any platform."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if entry_bound < 1:
        raise ValueError("entry_bound must be at least 1")
    rng = SplitMix64(seed)
    for _ in range(MAX_ATTEMPTS):
        rows = tuple(
            tuple(Fraction(rng.int_between(-entry_bound, entry_bound)) for _ in range(n))
            for _ in range(m)
        )
        try:
            L = Lattice(rows)
        except DependentRows:
            continue
        if min_lambda1_sq is None:
            return L
        min_lambda1_sq = linalg.as_rational(min_lambda1_sq)
        _, lam1 = shortest_vector(L)
        if lam1 >= min_lambda1_sq:
            return L
        s = linalg.ceil_sqrt(min_lambda1_sq / lam1)  # s^2 lam1 >= min_lambda1_sq
        return Lattice(tuple(linalg.vscale(Fraction(s), r) for r in rows))
    raise GenerationFailed(f"no suitable basis after {MAX_ATTEMPTS} attempts")

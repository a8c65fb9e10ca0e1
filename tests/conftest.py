from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from latstab import Lattice
from latstab.rng import SplitMix64

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


def seeded_lattices(base_seed: int, count: int, n_max: int, m_max: int | None = None,
                    entry_bound: int = 4):
    """Deterministic stream of small full-rank lattices for bulk checks."""
    from latstab import random_lattice

    rng = SplitMix64(base_seed)
    out = []
    while len(out) < count:
        n = rng.int_between(1, n_max)
        m = rng.int_between(1, min(n, m_max) if m_max else n)
        seed = rng.next_u64()
        out.append(random_lattice(seed, n, m, entry_bound=entry_bound))
    return out


@pytest.fixture
def z1():
    return Lattice(((Fraction(1),),))


@pytest.fixture
def z2():
    return Lattice(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))


@pytest.fixture
def z3():
    return Lattice((
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ))


@pytest.fixture
def mixed2():
    """Diagonal lattice with one coarse and one fine direction."""
    return Lattice(((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 2))))


@pytest.fixture
def skew2():
    return Lattice(((Fraction(1), Fraction(0)), (Fraction(3), Fraction(1))))

from fractions import Fraction as F

import pytest

from latstab import (
    DependentRows,
    Lattice,
    NotInSpan,
    annihilator,
    dist_to_integers,
    double_dual_check,
    dual,
    dual_coordinates,
    equal_lattices,
    integral_coordinates,
    is_member,
    linalg,
)
from latstab.rng import SplitMix64


class TestDistToIntegers:
    def test_values(self):
        assert dist_to_integers(F(0)) == 0
        assert dist_to_integers(F(5)) == 0
        assert dist_to_integers(F(1, 2)) == F(1, 2)
        assert dist_to_integers(F(13, 10)) == F(3, 10)
        assert dist_to_integers(F(-13, 10)) == F(3, 10)
        assert dist_to_integers(F(7, 10)) == F(3, 10)


class TestDual:
    def test_diagonal(self, mixed2):
        assert dual(mixed2).basis == ((F(1, 2), F(0)), (F(0), F(2)))

    def test_shear(self, skew2):
        assert dual(skew2).basis == ((F(1), F(-3)), (F(0), F(1)))

    def test_biorthogonality(self, skew2):
        W = dual(skew2).basis
        for i, v in enumerate(skew2.basis):
            for j, w in enumerate(W):
                assert linalg.dot(v, w) == (1 if i == j else 0)

    def test_double_dual_is_literal_identity(self, skew2):
        assert dual(dual(skew2)).basis == skew2.basis
        assert double_dual_check(skew2)

    def test_dual_kept_on_lattice_but_not_back(self, skew2):
        assert dual(skew2) is dual(skew2)
        twice = dual(dual(skew2))
        assert twice is not skew2
        assert twice == skew2

    def test_lower_rank_dual_stays_in_span(self):
        L = Lattice(((F(1), F(1)),))
        W = dual(L)
        assert W.basis == ((F(1, 2), F(1, 2)),)
        assert double_dual_check(L)


class TestAnnihilator:
    def test_full_rank_is_dual(self, z2):
        rep = annihilator(z2)
        assert rep.is_lattice
        assert rep.ortho_complement == ()
        assert equal_lattices(rep.dual, z2)

    def test_low_rank_has_free_directions(self):
        rep = annihilator(Lattice(((F(1), F(0)),)))
        assert not rep.is_lattice
        assert rep.ortho_complement == ((F(0), F(1)),)
        assert rep.contains((3, F(7, 2)))
        assert not rep.contains((F(1, 2), 0))


class TestCoordinates:
    def test_membership(self, skew2):
        assert integral_coordinates(skew2, (7, 2)) == (1, 2)
        assert is_member(skew2, (7, 2))
        assert integral_coordinates(skew2, (F(1, 2), 0)) is None

    def test_dual_coordinates_requires_span(self):
        L = Lattice(((F(1), F(0)),))
        assert dual_coordinates(L, (F(5, 2), 0)) == (F(5, 2),)
        with pytest.raises(NotInSpan):
            dual_coordinates(L, (0, 1))


class TestEquality:
    def test_unimodular_rebasing(self, z2):
        other = Lattice(((F(1), F(1)), (F(1), F(0))))
        assert equal_lattices(z2, other)

    def test_sublattice_differs(self, z2):
        assert not equal_lattices(z2, Lattice(((F(2), F(0)), (F(0), F(1)))))

    def test_rational_scaling(self):
        a = Lattice(((F(1, 3),),))
        b = Lattice(((F(2, 6),),))
        assert equal_lattices(a, b)

    def test_different_denominators(self):
        """Both bases are scaled by one common denominator: 1/2 Z x 1/3 Z
        equals the lattice of (1/2, 1/3), (0, 1/3) and differs from 1/3 Z x 1/3 Z,
        and 1/2 Z differs from Z although each scaled by its own is Z."""
        a = Lattice(((F(1, 2), F(0)), (F(0), F(1, 3))))
        assert equal_lattices(a, Lattice(((F(1, 2), F(1, 3)), (F(0), F(1, 3)))))
        assert not equal_lattices(a, Lattice(((F(1, 3), F(0)), (F(0), F(1, 3)))))
        assert not equal_lattices(Lattice(((F(1, 2),),)), Lattice(((F(1),),)))


class TestConstruction:
    def test_dependent_rows_rejected(self):
        with pytest.raises(DependentRows):
            Lattice(((F(1), F(1)), (F(2), F(2))))

    def test_from_generators_drops_dependencies(self):
        L = Lattice.from_generators(((1, 1), (2, 2), (0, 3)))
        assert L.rank == 2
        assert L.basis == ((F(1), F(1)), (F(0), F(3)))

    def test_from_generators_rational(self):
        L = Lattice.from_generators(((F(1, 2), 0), (F(1, 3), 0)))
        assert L.basis == ((F(1, 6), F(0)),)


class TestSplitMix64:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)

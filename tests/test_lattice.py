from fractions import Fraction as F

import pytest

from latstab import (
    DependentRows,
    Lattice,
    NearResult,
    NotInSpan,
    ReducedBasis,
    annihilator,
    dist_to_integers,
    double_dual_check,
    dual,
    dual_coordinates,
    equal_lattices,
    integral_coordinates,
    is_member,
    enumeration,
    linalg,
    random_lattice,
    shortest_vector,
)
from latstab import generate
from latstab.lattice import record
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

    def test_different_ambient_dimensions_differ(self):
        assert not equal_lattices(Lattice(((F(1), F(0)),)), Lattice(((F(1),),)))

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

    @pytest.mark.parametrize("rows", [(), ((),)])
    def test_empty_basis_rejected(self, rows):
        with pytest.raises(ValueError, match="at least one nonzero basis row"):
            Lattice(rows)

    def test_from_generators_of_zero_rejected(self):
        with pytest.raises(ValueError, match="zero lattice"):
            Lattice.from_generators([[0, 0]])

    def test_from_generators_rational(self):
        L = Lattice.from_generators(((F(1, 2), 0), (F(1, 3), 0)))
        assert L.basis == ((F(1, 6), F(0)),)


class TestRecord:
    """The result types are lattice.record classes, the stand-in for
    dataclass(frozen=True); each repr below is what the dataclass printed."""

    def test_repr_as_before(self):
        red = ReducedBasis(((F(1), F(0)),), "lll", (F(1),))
        assert repr(red) == ("ReducedBasis(basis=((Fraction(1, 1), Fraction(0, 1)),), kind='lll', "
                             "norms_sq=(Fraction(1, 1),), parameter=None)")
        near = NearResult(point=(F(1), F(-1, 2)), coords=(1, 0), dist_sq=F(1, 4))
        assert repr(near) == ("NearResult(point=(Fraction(1, 1), Fraction(-1, 2)), "
                              "coords=(1, 0), dist_sq=Fraction(1, 4))")
        L = Lattice(((F(2), F(0)), (F(1), F(1, 2))))
        dual(L), L.gram_matrix  # kept on L, outside the repr
        assert repr(L) == ("Lattice(basis=((Fraction(2, 1), Fraction(0, 1)), "
                           "(Fraction(1, 1), Fraction(1, 2))))")

    def test_position_keyword_and_defaults(self):
        B, norms = ((F(1), F(0)), (F(0), F(2))), (F(1), F(4))
        full = ReducedBasis(B, "minkowski", norms, None)
        assert ReducedBasis(B, "minkowski", norms) == ReducedBasis(B, kind="minkowski",
                                                                 norms_sq=norms) == full
        assert (ReducedBasis(B, "lll", norms, parameter=F(3, 4))
                == ReducedBasis(basis=B, kind="lll", norms_sq=norms, parameter=F(3, 4)))
        assert ReducedBasis(B, "minkowski", norms).parameter is None

    @pytest.mark.parametrize("args, kwargs", [
        ((1, 2, 3, 4, 5), {}),            # one more than the four fields
        ((1, 2, 3), {"basis": 2}),        # basis twice
        ((1, 2, 3), {"parameters": 1}),   # no such field
    ])
    def test_unknown_or_repeated_field(self, args, kwargs):
        with pytest.raises(TypeError, match="ReducedBasis"):
            ReducedBasis(*args, **kwargs)

    def test_missing_field(self):
        with pytest.raises(TypeError, match="NearResult"):
            NearResult(point=(F(1),), coords=(1,))
        with pytest.raises(TypeError):
            NearResult((F(1),), (1,))

    def test_frozen(self):
        red = ReducedBasis(((F(1),),), "lll", (F(1),))
        with pytest.raises(AttributeError, match="cannot assign to field 'kind'"):
            red.kind = "minkowski"
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            red.other = 1
        with pytest.raises(AttributeError, match="cannot delete field 'kind'"):
            del red.kind
        assert red == ReducedBasis(((F(1),),), "lll", (F(1),))

    def test_equality_and_hash_by_fields_within_one_class(self):
        @record
        class P:
            x: int
            y: int

        @record
        class Q:
            x: int
            y: int

        assert P(1, 2) == P(x=1, y=2) and P(1, 2) != P(2, 1)
        assert P(1, 2) != Q(1, 2) and P(1, 2) != (1, 2)
        assert P(1, 2).__eq__(Q(1, 2)) is NotImplemented
        assert hash(P(1, 2)) == hash(Q(1, 2)) == hash((1, 2))
        rows = ((F(1), F(0)), (F(0), F(1)))
        L, M = Lattice(rows), Lattice(basis=((1, 0), (0, 1)))
        assert L == M and hash(L) == hash(M) == hash((rows,)) and len({L, M}) == 1

    def test_post_init_runs(self):
        assert Lattice(basis=((1, 2),)).basis == ((F(1), F(2)),)
        with pytest.raises(DependentRows):
            Lattice(basis=((F(1), F(1)), (F(2), F(2))))

    def test_data_kept_on_the_object(self):
        L = Lattice(((F(2), F(1)), (F(0), F(3))))
        G = L.gram_matrix
        prep = enumeration._prep(L)
        assert L.gram_matrix is G and enumeration._prep(L) is prep
        assert prep.inverse is prep.inverse
        assert "gram_matrix" in vars(L) and "inverse" in vars(prep)


class TestRandomLattice:
    def test_rescaled_draw_searches_once(self, monkeypatch):
        """s = ceil sqrt(b / lambda1^2) gives lambda1(sL)^2 = s^2 lambda1^2 >= b,
        so a rescaled basis is returned without a second shortest-vector search."""
        found = []

        def counting(L):
            got = shortest_vector(L)
            found.append(got[1])
            return got

        monkeypatch.setattr(generate, "shortest_vector", counting)
        rescaled = 0
        for seed in range(1001, 1041):
            found.clear()
            L = random_lattice(seed, 3, 3, min_lambda1_sq=16)
            assert len(found) == 1
            rescaled += found[0] < 16
            assert shortest_vector(L)[1] >= 16
        assert rescaled == 20

    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 18])
    @pytest.mark.parametrize("bound", [F(4), F(16), F(50, 3)])
    def test_lambda1_reaches_the_bound(self, seed, bound):
        L = random_lattice(seed, 3, 2, entry_bound=4, min_lambda1_sq=bound)
        assert shortest_vector(L)[1] >= bound


class TestSplitMix64:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from latstab import (
    CertificationFailed,
    Lattice,
    NotInLattice,
    NotPrimitive,
    RankTooLarge,
    dual,
    enumeration,
    equal_lattices,
    extend_to_basis,
    is_primitive_system,
    linalg,
    lll,
    minkowski_reduce,
    random_lattice,
)
from latstab.enumeration import ShortVectorList
from latstab.reduction import DEFAULT_DELTA, _lll_rows, _primitive_coords
from conftest import seeded_lattices
from oracles import (gs_fractions, lll_violations, reference_gram_schmidt, reference_lll_rows,
                     reference_minkowski_reduce, reference_primitive_coords, same_lattice)


class TestLLL:
    def test_nearly_parallel_collapses(self):
        red = lll(Lattice(((F(201), F(200)), (F(200), F(199)))))
        assert sorted(red.norms_sq) == [1, 1]
        assert equal_lattices(Lattice(red.basis), Lattice(((F(1), F(0)), (F(0), F(1)))))

    def test_preserves_lattice(self, skew2):
        red = lll(skew2)
        assert equal_lattices(Lattice(red.basis), skew2)
        assert red.kind == "lll"
        assert red.parameter == F(3, 4)

    def test_idempotent(self, skew2):
        once = lll(skew2)
        again = lll(Lattice(once.basis))
        assert again.basis == once.basis

    def test_size_reduced_and_lovasz(self):
        L = Lattice(((F(7), F(2), F(0)), (F(5), F(9), F(1)), (F(2), F(2), F(8))))
        red = lll(L)
        gamma, mu = gs_fractions(*linalg.gram_schmidt(red.basis))
        for i in range(1, L.rank):
            for j in range(i):
                assert abs(mu[i][j]) <= F(1, 2)
            assert gamma[i] >= (F(3, 4) - mu[i][i - 1] ** 2) * gamma[i - 1]

    def test_no_rank_elimination(self, monkeypatch):
        """The reduced rows are a unimodular image of independent rows, so lll
        checks no rank of its own: its result holds rows, not a Lattice."""
        L = random_lattice(3, 6, 6)
        calls = []
        real = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda M: calls.append(M) or real(M))
        red = lll(L)
        assert calls == []
        assert equal_lattices(Lattice(red.basis), L)

    def test_delta_validated(self, z2):
        with pytest.raises(ValueError):
            lll(z2, F(1, 4))
        with pytest.raises(ValueError):
            lll(z2, F(1))


class TestIncrementalLLL:
    """The exact in-place integer (d, lam) updates make the same moves as the
    recompute-every-step reference."""

    @staticmethod
    def check_against_reference(B, delta=DEFAULT_DELTA):
        rows, U, *gs = _lll_rows(B, delta)
        assert (rows, U) == reference_lll_rows(B, delta)
        assert linalg.mat_mul(linalg.as_mat(U), B) == rows
        assert abs(linalg.det(linalg.as_mat(U))) == 1
        gamma, mu = gs_fractions(*gs)
        bstar, mu_ref = reference_gram_schmidt(rows)
        assert gamma == tuple(linalg.norm_sq(w) for w in bstar)
        assert mu == mu_ref

    def test_matches_reference_on_seeded_lattices(self):
        lattices = seeded_lattices(606, 40, n_max=8, entry_bound=9)
        for L in lattices:
            self.check_against_reference(L.basis)
        # rational bases, the duals, at a second delta too
        duals = [dual(L).basis for L in lattices]
        assert any(a.denominator > 1 for B in duals for row in B for a in row)
        for B in duals:
            for delta in (F(3, 4), F(99, 100)):
                self.check_against_reference(B, delta)

    @pytest.mark.parametrize("m", [12, 13, 14])
    def test_matches_reference_at_rank_12_to_14(self, m):
        self.check_against_reference(random_lattice(2, m, m).basis)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_rank_20_textbook_reduced(self, seed):
        L = random_lattice(seed, 20, 20, entry_bound=20)
        red = lll(L)
        assert lll_violations(red.basis, F(3, 4)) == []
        assert same_lattice(L.basis, red.basis)
        # the integer exchange updates at rank 20 leave what a fresh recurrence gives
        out = _lll_rows(L.basis, DEFAULT_DELTA)
        assert out[0] == red.basis
        assert out[2:] == linalg.gram_schmidt(red.basis)


class TestMinkowski:
    def test_identity_fixed(self, z3):
        assert minkowski_reduce(z3).basis == z3.basis

    def test_respects_shorter_representatives(self):
        red = minkowski_reduce(Lattice(((F(2), F(0)), (F(1), F(2)))))
        assert red.basis == ((F(2), F(0)), (F(1), F(2)))
        assert red.norms_sq == (4, 5)

    def test_shear_flattens(self, skew2):
        red = minkowski_reduce(skew2)
        assert red.norms_sq == (1, 1)
        assert equal_lattices(Lattice(red.basis), skew2)

    def test_rank_cap(self):
        rows = tuple(tuple(F(1 if i == j else 0) for j in range(5)) for i in range(5))
        with pytest.raises(RankTooLarge):
            minkowski_reduce(Lattice(rows))

    def test_one_lll_per_reduction(self, monkeypatch):
        from latstab import reduction

        calls = []

        def counted(rows, delta):
            calls.append(rows)
            return _lll_rows(rows, delta)

        monkeypatch.setattr(reduction, "_lll_rows", counted)
        monkeypatch.setattr(enumeration, "_lll_rows", counted)
        red = minkowski_reduce(random_lattice(7, 3, 3))
        assert len(calls) == 1
        assert red.basis == ((2, -2, 2), (4, 4, 2), (6, 1, -7))

    def test_one_listing_per_reduction(self, monkeypatch):
        calls = []
        listing = enumeration.list_vectors

        def counted(L, radius_sq, node_budget):
            calls.append(radius_sq)
            return listing(L, radius_sq, node_budget=node_budget)

        monkeypatch.setattr(enumeration, "list_vectors", counted)
        minkowski_reduce(random_lattice(7, 4, 4))
        assert len(calls) == 1

    def test_listing_short_of_full_rank_rejected(self, z2, monkeypatch):
        # a listing that lacks e2, which the second row needs
        monkeypatch.setattr(enumeration, "list_vectors",
                            lambda L, r, node_budget: ShortVectorList(r, (((1, 0), F(1)),)))
        with pytest.raises(CertificationFailed, match="holds 1 Minkowski rows, not 2"):
            minkowski_reduce(z2)

    @pytest.mark.parametrize("entry_bound, rational", [(4, False), (4, True), (30, False), (30, True)])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_per_row_reference(self, m, entry_bound, rational):
        """One walk of one listing against a fresh listing per row, with its
        radius growth, in dimensions m and 4; rational bases divide row i by
        a number in 1..4."""
        for seed in range(8):
            L = random_lattice(4100 + seed, 4 if seed % 2 else m, m, entry_bound=entry_bound)
            if rational:
                L = Lattice(tuple(linalg.vscale(F(1, (seed + i) % 4 + 1), r)
                                  for i, r in enumerate(L.basis)))
            assert minkowski_reduce(L) == reference_minkowski_reduce(L)

    def test_walk_passes_over_multiples(self):
        """The listing up to the longest LLL row, 9, ranks (1, 0), (2, 0),
        (3, 0), (0, 3); the walk keeps the first and the last."""
        L = Lattice(((F(1), F(0)), (F(0), F(3))))
        red = minkowski_reduce(L)
        assert red.basis == ((1, 0), (0, 3))
        assert red == reference_minkowski_reduce(L)

    def test_norms_sorted_nondecreasing(self):
        red = minkowski_reduce(Lattice(((F(5), F(3)), (F(2), F(1)))))
        assert list(red.norms_sq) == sorted(red.norms_sq)
        assert equal_lattices(Lattice(red.basis), Lattice(((F(5), F(3)), (F(2), F(1)))))


class TestPrimitivity:
    def test_single_primitive(self, z2):
        assert is_primitive_system(z2, ((F(2), F(1)),))
        assert not is_primitive_system(z2, ((F(2), F(0)),))

    def test_pair_with_index_two(self, z2):
        assert not is_primitive_system(z2, ((F(1), F(1)), (F(1), F(-1))))

    def test_full_basis_is_primitive(self, skew2):
        assert is_primitive_system(skew2, skew2.basis)

    def test_dependent_vectors(self, z2):
        assert not is_primitive_system(z2, ((F(1), F(0)), (F(2), F(0))))

    def test_requires_membership(self, z2):
        with pytest.raises(NotInLattice):
            is_primitive_system(z2, ((F(1, 2), F(0)),))

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-3, 3)] * n), max_size=n + 1)))
    def test_hermite_form_matches_minors(self, C):
        assert _primitive_coords(C) == reference_primitive_coords(C)


class TestExtendToBasis:
    def test_completes_primitive_vector(self, z2):
        got = extend_to_basis(z2, ((F(2), F(1)),))
        assert got[0] == (2, 1)
        assert abs(linalg.det(got)) == 1

    def test_rejects_imprimitive(self, z2):
        with pytest.raises(NotPrimitive):
            extend_to_basis(z2, ((F(2), F(0)),))

    def test_full_partial_returned_as_is(self, skew2):
        assert extend_to_basis(skew2, skew2.basis) == skew2.basis

    def test_extension_spans_same_lattice(self, z3):
        got = extend_to_basis(z3, ((F(1), F(1), F(0)), (F(0), F(1), F(1))))
        assert len(got) == 3
        assert abs(linalg.det(got)) == 1
        assert got[0] == (1, 1, 0) and got[1] == (0, 1, 1)

    def test_listing_without_a_vector_off_the_span(self, z2, monkeypatch):
        monkeypatch.setattr(enumeration, "list_vectors",
                            lambda L, r, node_budget: ShortVectorList(r, ()))
        with pytest.raises(CertificationFailed):
            extend_to_basis(z2, ((F(1), F(0)),))

    def test_imprimitive_extension_rejected(self, z2, monkeypatch):
        # a listing that offers only 2*e2 off the span of e1
        monkeypatch.setattr(enumeration, "list_vectors",
                            lambda L, r, node_budget: ShortVectorList(r, (((0, 2), F(4)),)))
        with pytest.raises(CertificationFailed):
            extend_to_basis(z2, ((F(1), F(0)),))


@given(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_lll_bounds_shortest(rows):
    B = linalg.as_mat(rows)
    if linalg.rank(B) != 2:
        return
    L = Lattice(B)
    red = lll(L)
    assert equal_lattices(Lattice(red.basis), L)
    # first LLL row is at most 2^((m-1)/2) times the shortest vector (squared: 2)
    from latstab import shortest_vector
    _, lam1 = shortest_vector(L)
    assert red.norms_sq[0] <= 2 * lam1

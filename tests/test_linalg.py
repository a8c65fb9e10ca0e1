from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, strategies as st

from latstab import DependentRows, DimensionMismatch, SingularMatrix, equal_lattices, Lattice
from latstab import linalg
from oracles import (gs_fractions, reference_det, reference_gram_schmidt, reference_null_space,
                     reference_rank, reference_rowspace_coefficients, reference_solve_matrix)


def M(*rows):
    return linalg.as_mat(rows)


class TestBasics:
    def test_gram(self):
        assert linalg.gram(M((1, 0), (3, 1))) == M((1, 3), (3, 10))

    def test_invert_frozen(self):
        assert linalg.invert(M((1, 3), (3, 10))) == M((10, -3), (-3, 1))

    def test_invert_singular(self):
        with pytest.raises(SingularMatrix):
            linalg.invert(M((1, 2), (2, 4)))

    def test_det(self):
        assert linalg.det(M((2, 1), (1, 2))) == 3
        assert linalg.det(linalg.identity(3)) == 1
        assert linalg.det(M((0, 1), (1, 0))) == -1

    def test_solve(self):
        assert linalg.solve(M((2, 1), (1, 2)), linalg.as_vec((3, 3))) == (1, 1)

    def test_rank(self):
        assert linalg.rank(M((1, 2), (2, 4))) == 1
        assert linalg.rank(M((1, 0), (0, 1))) == 2

    def test_as_mat_rejects_ragged(self):
        with pytest.raises(ValueError):
            linalg.as_mat(((1, 2), (3,)))


class TestGramSchmidt:
    def test_integer_shear(self):
        gamma, mu = gs_fractions(*linalg.gram_schmidt(M((1, 0), (3, 1))))
        assert gamma == (1, 1)
        assert mu == M((1, 0), (3, 1))

    def test_half_coefficient(self):
        gs = linalg.gram_schmidt(M((2, 0), (1, 2)))
        # Gram matrix ((4, 2), (2, 5)): d = (1, 4, 16) and lam[1][0] = d[1] mu_10 = 2
        assert gs == ([1, 4, 16], [[4, 0], [2, 16]], 1)
        gamma, mu = gs_fractions(*gs)
        assert gamma == (4, 4)
        assert mu == M((1, 0), (F(1, 2), 1))

    def test_denominators_cleared(self):
        # D = 6 clears B; gamma and mu are those of B itself, not of 6 B
        B = M((F(1, 2), 0), (F(1, 3), F(1, 3)))
        d, lam, D = linalg.gram_schmidt(B)
        assert D == 6 and d == [1, 9, 36]
        assert gs_fractions(d, lam, D) == ((F(1, 4), F(1, 9)), M((1, 0), (F(2, 3), 1)))

    def test_dependent_rows(self):
        with pytest.raises(DependentRows):
            linalg.gram_schmidt(M((1, 1), (2, 2)))
        with pytest.raises(DependentRows):
            linalg.gram_schmidt(M((1, 0, 1), (0, 1, 0), (F(1, 2), F(3, 2), F(1, 2))))

    @given(st.lists(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                             min_size=3, max_size=3), min_size=1, max_size=3))
    def test_reconstruction(self, rows):
        """gamma and mu equal the ambient Fraction Gram-Schmidt's, whose
        orthogonal rows rebuild B, and rebuild the Gram matrix: G = mu diag(gamma) mu^T."""
        B = linalg.as_mat(rows)
        if linalg.rank(B) != len(rows):
            with pytest.raises(DependentRows):
                linalg.gram_schmidt(B)
            return
        gamma, mu = gs_fractions(*linalg.gram_schmidt(B))
        bstar, mu_ref = reference_gram_schmidt(B)
        assert linalg.mat_mul(mu_ref, bstar) == B
        assert all(linalg.dot(bstar[i], bstar[j]) == 0 for i in range(len(B)) for j in range(i))
        assert gamma == tuple(linalg.norm_sq(w) for w in bstar)
        assert mu == mu_ref
        scaled = tuple(tuple(g * a for g, a in zip(gamma, row)) for row in mu)
        assert linalg.mat_mul(scaled, tuple(zip(*mu))) == linalg.gram(B)


class TestProjection:
    def test_onto_diagonal(self):
        got = linalg.project_onto_rowspace(M((1, 1)), linalg.as_vec((1, 0)))
        assert got == (F(1, 2), F(1, 2))

    def test_coefficients_roundtrip(self):
        B = M((1, 0, 1), (0, 2, 0))
        x = linalg.as_vec((3, 4, 3))
        c = linalg.rowspace_coefficients(B, x)
        assert c == (3, 2)

    def test_onto_dependent_rows(self):
        with pytest.raises(DependentRows):
            linalg.project_onto_rowspace(M((1, 2), (2, 4)), linalg.as_vec((1, 0)))

    def test_coefficients_off_span(self):
        assert linalg.rowspace_coefficients(M((1, 0)), linalg.as_vec((0, 1))) is None

    def test_null_space(self):
        ns = linalg.null_space(M((1, 0)))
        assert ns == M((0, 1))
        assert linalg.null_space(linalg.identity(2)) == ()


class TestHermiteForm:
    def test_unimodular_collapses_to_identity(self):
        assert linalg.hnf(((2, 1), (1, 0))) == ((1, 0), (0, 1))

    def test_diagonalizable(self):
        assert linalg.hnf(((4, 2), (2, 2))) == ((2, 0), (0, 2))

    def test_zero_rows_sink(self):
        assert linalg.hnf(((0, 0), (1, 2))) == ((1, 2), (0, 0))

    def test_entries_above_pivot_reduced(self):
        got = linalg.hnf(((1, 5), (0, 2)))
        assert got == ((1, 1), (0, 2))

    @given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
                    min_size=1, max_size=3))
    def test_idempotent_and_span_preserving(self, rows):
        h = linalg.hnf(rows)
        assert linalg.hnf(h) == h
        kept = [r for r in rows if any(r)]
        if kept and linalg.rank(linalg.as_mat(kept)) == len(kept):
            hk = [r for r in h if any(r)]
            assert equal_lattices(Lattice.from_generators(kept),
                                  Lattice.from_generators(hk))


class TestIntegerSqrt:
    def test_floor(self):
        assert linalg.floor_sqrt(F(9)) == 3
        assert linalg.floor_sqrt(F(10)) == 3
        assert linalg.floor_sqrt(F(1, 4)) == 0
        assert linalg.floor_sqrt(F(17, 4)) == 2

    def test_ceil(self):
        assert linalg.ceil_sqrt(F(9)) == 3
        assert linalg.ceil_sqrt(F(10)) == 4
        assert linalg.ceil_sqrt(F(1, 4)) == 1
        assert linalg.ceil_sqrt(F(17, 4)) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            linalg.ceil_sqrt(F(-1, 4))


@given(st.lists(st.lists(st.integers(-7, 7), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_inverse_roundtrip(rows):
    A = linalg.as_mat(rows)
    if linalg.det(A) == 0:
        return
    assert linalg.mat_mul(A, linalg.invert(A)) == linalg.identity(3)


small_ints = st.integers(-4, 4)


def int_matrix(rows, cols):
    return st.lists(st.lists(small_ints, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(linalg.as_mat)


class TestEliminationKernel:
    """One elimination routine serves rank, det, solve, inverse, kernel and
    coordinates; these properties pin its pivoting and sign bookkeeping."""

    @given(st.integers(1, 4).flatmap(lambda r: st.integers(1, 4).flatmap(
        lambda c: int_matrix(r, c))))
    def test_rank_nullity(self, A):
        ns = linalg.null_space(A)
        assert linalg.rank(A) + len(ns) == len(A[0])
        for n in ns:
            assert linalg.mat_vec(A, n) == linalg.zeros(len(A))

    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(int_matrix(m, m), int_matrix(m, m))))
    def test_det_multiplicative(self, pair):
        A, B = pair
        assert linalg.det(linalg.mat_mul(A, B)) == linalg.det(A) * linalg.det(B)

    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(
        int_matrix(m, m), st.lists(small_ints, min_size=m, max_size=m))))
    def test_solve_satisfies_system(self, case):
        A, b = case
        b = linalg.as_vec(b)
        if linalg.det(A) == 0:
            with pytest.raises(SingularMatrix):
                linalg.solve(A, b)
            return
        assert linalg.mat_vec(A, linalg.solve(A, b)) == b

    @given(st.integers(2, 4).flatmap(lambda n: st.integers(1, n - 1).flatmap(
        lambda k: st.tuples(int_matrix(k, n), st.lists(small_ints, min_size=k, max_size=k)))))
    def test_rowspace_coefficients(self, case):
        B, c = case
        if linalg.rank(B) < len(B):
            with pytest.raises(DependentRows):
                linalg.rowspace_coefficients(B, linalg.zeros(len(B[0])))
            return
        c = linalg.as_vec(c)
        x = linalg.vec_mat(c, B)
        assert linalg.rowspace_coefficients(B, x) == c
        off = linalg.null_space(B)[0]  # orthogonal to every row of B
        assert linalg.rowspace_coefficients(B, linalg.vadd(x, off)) is None


    @pytest.mark.parametrize("perm, sign", [((1, 0), -1), ((1, 2, 0), 1), ((1, 2, 3, 0), -1)])
    def test_det_of_scaled_permutations(self, perm, sign):
        # row i is scales[i] * e_perm[i]; the pivot of every column but the
        # last sits in the last row, so the elimination swaps len(perm) - 1 times
        scales = (F(2, 3), F(-5, 7), F(3), F(1, 4))[:len(perm)]
        P = tuple(tuple(s if j == p else F(0) for j in range(len(perm)))
                  for s, p in zip(scales, perm))
        assert linalg.det(P) == sign * prod(scales)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def rational_matrices(draw, square=False):
    """Rational matrices whose elimination skips zero columns, swaps rows
    (a zero top-left entry) and meets rows that combine earlier rows."""
    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(1, 6))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        if draw(st.booleans()):
            k, l = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(rationals), draw(rationals)
            rows[i] = [a * x + b * y for x, y in zip(rows[k], rows[l])]
    for j in range(n):
        if draw(st.integers(0, 3)) == 0:
            for r in rows:
                r[j] = F(0)
    if draw(st.booleans()):
        rows[0][0] = F(0)
    return linalg.as_mat(rows)


def _outcome(f, *args):
    """repr of the result, so an int where the reference gives a Fraction
    differs; the exception type when the call raises."""
    try:
        return repr(f(*args))
    except (SingularMatrix, DependentRows) as e:
        return type(e)


class TestKernelMatchesFractionReference:
    """The fraction-free kernel's callers return what the earlier all-Fraction
    Gauss-Jordan elimination (tests/oracles.py) returns, value and type."""

    @given(rational_matrices(), st.data())
    def test_rank_null_space_and_coordinates(self, A, data):
        assert linalg.rank(A) == reference_rank(A)
        assert _outcome(linalg.null_space, A) == _outcome(reference_null_space, A)
        n = len(A[0])
        coeffs = data.draw(st.lists(rationals, min_size=len(A), max_size=len(A)))
        for x in (linalg.vec_mat(linalg.as_vec(coeffs), A),
                  linalg.as_vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))):
            assert (_outcome(linalg.rowspace_coefficients, A, x)
                    == _outcome(reference_rowspace_coefficients, A, x))

    @given(rational_matrices(square=True), st.data())
    def test_det_and_solve(self, A, data):
        assert _outcome(linalg.det, A) == _outcome(reference_det, A)
        m = len(A)
        R = linalg.as_mat(data.draw(st.lists(st.lists(rationals, min_size=2, max_size=2),
                                             min_size=m, max_size=m)))
        assert _outcome(linalg.solve_matrix, A, R) == _outcome(reference_solve_matrix, A, R)
        I = linalg.identity(m)
        assert _outcome(linalg.invert, A) == _outcome(reference_solve_matrix, A, I)


class TestDimensionMismatch:
    def test_dot(self):
        with pytest.raises(DimensionMismatch):
            linalg.dot(linalg.as_vec((1, 2)), linalg.as_vec((1, 2, 3)))

    def test_vec_mat(self):
        with pytest.raises(DimensionMismatch):
            linalg.vec_mat(linalg.as_vec((1, 2, 3)), M((1, 0), (0, 1)))

    def test_rowspace_coefficients(self):
        with pytest.raises(DimensionMismatch):
            linalg.rowspace_coefficients(M((1, 0, 0), (0, 1, 0)), linalg.as_vec((1, 2)))

    def test_non_square(self):
        for f in (linalg.det, linalg.invert):
            with pytest.raises(DimensionMismatch):
                f(M((1, 0, 0), (0, 1, 0)))
        with pytest.raises(DimensionMismatch):
            linalg.solve(linalg.identity(2), linalg.as_vec((1, 2, 3)))

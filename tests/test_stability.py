import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from latstab import (
    CertificationFailed,
    DependentRows,
    DimensionMismatch,
    Lattice,
    NotInSpan,
    ProbeConfig,
    almost_near_linear,
    check_hypothesis,
    degenerate_family,
    dual,
    enumeration,
    linalg,
    list_vectors,
    near_dual_vector,
    probe_worst_distance,
    random_lattice,
    residual_amplification,
    round_in_dual_coordinates,
    sharpness_witness,
    stability,
    stability_radius,
    transference_check,
)
from latstab.lattice import dist_to_integers
from latstab.linalg import _round_half_even
from latstab.stability import _slab_step, _Slabs
from conftest import seeded_lattices
from oracles import reference_probe_worst_distance

FAST = ProbeConfig(seed=0, restarts=8)


class TestCheckHypothesis:
    def test_holds(self, z2):
        rep = check_hypothesis(z2, (F(9, 10), F(1, 10)), F(1, 10), F(1))
        assert rep.holds
        assert rep.checked_count == 2
        assert rep.violations == ()

    def test_violations_reported(self, z2):
        rep = check_hypothesis(z2, (F(9, 10), F(1, 10)), F(1, 20), F(1))
        assert not rep.holds
        assert {v.coords for v in rep.violations} == {(1, 0), (0, 1)}
        assert all(v.dist_to_int == F(1, 10) for v in rep.violations)

    def test_delta_range_enforced(self, z2):
        with pytest.raises(ValueError):
            check_hypothesis(z2, (0, 0), F(1, 2), F(1))

    def test_span_enforced(self):
        L = Lattice(((F(1), F(0)),))
        with pytest.raises(NotInSpan):
            check_hypothesis(L, (0, 1), F(1, 10), F(1))


class TestNearbyDualVectors:
    def test_rounding_frozen(self, z2):
        near = round_in_dual_coordinates(z2, (F(9, 10), F(1, 10)))
        assert near.point == (1, 0)
        assert near.dist_sq == F(1, 50)

    def test_rounding_in_fine_direction(self, mixed2):
        # dual is (1/2)Z x 2Z; t = (13/25, 0) rounds to the dual point (1/2, 0)
        x = (F(13, 50), F(0))
        near = round_in_dual_coordinates(mixed2, x)
        assert near.point == (F(1, 2), 0)
        assert near.dist_sq == F(36, 625)

    def test_exact_never_worse(self, skew2):
        x = (F(2, 5), F(1, 5))
        assert near_dual_vector(skew2, x).dist_sq <= round_in_dual_coordinates(skew2, x).dist_sq

    def test_nearest_tie_breaks_small_coords(self, mixed2):
        # x sits halfway between dual points (0,0) and (1/2,0)
        near = near_dual_vector(mixed2, (F(1, 4), 0))
        assert near.point == (0, 0)


class TestAlmostNearLinear:
    def test_projection_onto_line(self):
        y = almost_near_linear(((F(1), F(1)),), (F(1),), (F(3, 5), F(3, 5)))
        assert y == (F(1, 2), F(1, 2))

    def test_exactness_far_from_solutions(self):
        y = almost_near_linear(((F(1), F(1)),), (F(1),), (F(1, 2), F(5)))
        assert y == (F(-7, 4), F(11, 4))
        assert sum(y) == 1

    def test_dependent_rows_rejected(self):
        with pytest.raises(DependentRows):
            almost_near_linear(((F(1), F(1)), (F(2), F(2))), (1, 2), (0, 0))

    @pytest.mark.parametrize("b, x", [((1, 2), (0, 0)), ((1,), (0, 0, 0))])
    def test_shapes_checked(self, b, x):
        with pytest.raises(DimensionMismatch):
            almost_near_linear(((F(1), F(1)),), b, x)

    def test_residual_certificate_frozen(self):
        rep = residual_amplification(((F(1), F(0), F(0)), (F(0), F(2), F(0))),
                                     (1, 2), (2, 1, 5))
        assert rep.residual_norm_sq == 1
        assert rep.correction_norm_sq == 1
        assert rep.sigma_min_sq_lower == F(4, 5)
        assert rep.sigma_min_estimate == pytest.approx(1.0)

    def test_residual_single_row(self):
        rep = residual_amplification(((F(1), F(1)),), (1,), (F(1, 2), 5))
        assert rep.y == (F(-7, 4), F(11, 4))
        assert rep.residual_norm_sq == F(81, 4)
        assert rep.correction_norm_sq == F(81, 8)
        assert rep.sigma_min_sq_lower == 2
        assert rep.correction_norm_sq * rep.sigma_min_sq_lower <= rep.residual_norm_sq

    def test_one_gram_elimination_per_call(self, monkeypatch):
        calls = []
        real = linalg._eliminate

        def counted(rows, ncols):
            calls.append(ncols)
            return real(rows, ncols)

        monkeypatch.setattr(linalg, "_eliminate", counted)
        A, b, x = ((1, 0, 2), (0, 1, 1)), (1, 2), (F(1, 2), F(1, 3), F(1, 5))
        residual_amplification(A, b, x)
        assert len(calls) == 1
        almost_near_linear(A, b, x)
        assert len(calls) == 2

    def test_wrong_solution_rejected(self, monkeypatch):
        real = linalg.solve
        monkeypatch.setattr(linalg, "solve",
                            lambda M, b: tuple(a + F(1, 7) for a in real(M, b)))
        with pytest.raises(CertificationFailed):
            almost_near_linear(((F(1), F(1)),), (F(1),), (F(3, 5), F(3, 5)))

    @pytest.mark.parametrize("y_nudge, inverse_scale", [(F(1, 7), 1), (0, F(1, 100))])
    def test_residual_identities_checked(self, monkeypatch, y_nudge, inverse_scale):
        """A nudged y breaks A (x - y) = r; a shrunken (AA^T)^-1 inflates the
        sigma_min bound past correction^2 * sigma_min^2 <= residual^2."""
        real = stability._nearest_solution

        def wrong(A, b, x, with_inverse=False):
            y, r, Ginv = real(A, b, x, with_inverse)
            return ((y[0] + y_nudge, *y[1:]), r,
                    tuple(tuple(g * inverse_scale for g in row) for row in Ginv))

        monkeypatch.setattr(stability, "_nearest_solution", wrong)
        with pytest.raises(CertificationFailed):
            residual_amplification(((F(1), F(0), F(0)), (F(0), F(2), F(0))), (1, 2), (2, 1, 5))


class TestTransference:
    def test_minima_listed_once_per_lattice(self, monkeypatch):
        listed = []
        real = enumeration.list_vectors
        monkeypatch.setattr(enumeration, "list_vectors",
                            lambda K, r2, node_budget: listed.append((K, r2)) or
                            real(K, r2, node_budget))
        L = random_lattice(11, 3, 3)
        transference_check(L)
        for K in (L, dual(L)):
            # successive_minima lists up to the longest working row
            top = max(linalg.norm_sq(r) for r in enumeration._prep(K).rows)
            assert sum(J == K and r2 == top for J, r2 in listed) == 1

    def test_unit_lattices_satisfy_everything(self, z1, z2, z3):
        for L in (z1, z2, z3):
            rep = transference_check(L)
            assert rep.all_satisfied
            assert not rep.any_violation
            assert rep.mu_dual.exact

    def test_products_scale_invariant(self, mixed2):
        rep = transference_check(mixed2)
        assert rep.per_k[0].product_sq == 1
        assert rep.per_k[1].product_sq == 1
        assert rep.all_satisfied

    def test_skewed_rank_three(self):
        L = Lattice(((F(2), F(0), F(0)), (F(1), F(3), F(0)), (F(0), F(1), F(1))))
        rep = transference_check(L)
        assert rep.all_satisfied
        assert rep.mu_dual.lower_sq == F(29, 144)

    def test_rank_four_uses_interval(self):
        rows = tuple(tuple(F(2 if i == j else 0) for j in range(4)) for i in range(4))
        rep = transference_check(Lattice(rows))
        assert not rep.mu_dual.exact
        assert not rep.any_violation
        verdicts = {rep.covering_pair.verdict, rep.covering_pair_factorial.verdict,
                    rep.dual_basis_bound.verdict}
        assert verdicts <= {"satisfied", "indeterminate"}


class TestSharpness:
    def test_unit_line(self, z1):
        wit = sharpness_witness(z1)
        assert wit.x == (F(1, 3),)
        assert wit.report.holds
        assert wit.near.dist_sq == F(1, 9)

    def test_unit_square(self, z2):
        wit = sharpness_witness(z2)
        assert wit.report.holds
        assert wit.near.dist_sq == F(1, 9)

    def test_scaled_lattice(self, mixed2):
        # shortest dual vector has norm 1/2, so the witness sits 1/6 away
        wit = sharpness_witness(mixed2)
        assert wit.x == (F(1, 6), F(0))
        assert wit.report.holds
        assert wit.near.dist_sq == F(1, 36)

    def test_every_inner_product_is_a_third(self, z2):
        wit = sharpness_witness(z2, verify_radius_sq=F(200))
        for coords, _ in list_vectors(z2, F(200)):
            u = linalg.vec_mat(linalg.as_vec(coords), z2.basis)
            assert 3 * linalg.dot(u, wit.x) == round(3 * linalg.dot(u, wit.x))


class TestProbe:
    def test_line_small_radius(self, z1):
        f, w = probe_worst_distance(z1, F(1, 4), F(1), FAST)
        assert f == F(1, 16)
        assert w in {(F(1, 4),), (F(-1, 4),)}

    def test_line_larger_radius_pinches(self, z1):
        f, _ = probe_worst_distance(z1, F(1, 4), F(4), FAST)
        assert f == F(1, 64)

    def test_square_corner(self, z2):
        f, _ = probe_worst_distance(z2, F(1, 4), F(1), FAST)
        assert f == F(1, 8)

    def test_witness_is_feasible(self, skew2):
        f, w = probe_worst_distance(skew2, F(1, 5), F(2), FAST)
        rep = check_hypothesis(skew2, w, F(1, 5), F(2))
        assert rep.holds
        assert near_dual_vector(skew2, w).dist_sq == f

    def test_delta_below_third(self, z1):
        with pytest.raises(ValueError):
            probe_worst_distance(z1, F(1, 3), F(1), FAST)


    def test_wrong_repair_step_rejected(self, z2, monkeypatch):
        # the half-vector starts violate their slabs, so every one is repaired
        # the step's sigma is the last column of [H | rho] after elimination;
        # every other solve goes through the kernel untouched
        real = linalg._eliminate

        def wrong(rows, ncols):
            pivots, d = real(rows, ncols)
            if sys._getframe(1).f_code is stability._slab_step.__code__:
                rows[0] = [*rows[0][:-1], rows[0][-1] + 1]
            return pivots, d

        monkeypatch.setattr(linalg, "_eliminate", wrong)
        with pytest.raises(CertificationFailed, match="does not solve A y = b"):
            probe_worst_distance(z2, F(1, 4), F(1), FAST)

    def test_infeasible_witness_rejected(self, z1, monkeypatch):
        # the ascent's steps overshoot every slab by 1/3
        real = linalg.vadd
        monkeypatch.setattr(linalg, "vadd",
                            lambda u, v: tuple(a + F(1, 3) for a in real(u, v)))
        with pytest.raises(CertificationFailed):
            probe_worst_distance(z1, F(1, 4), F(1), FAST)


class TestProbeMatchesFractionReference:
    """The integer slab tests and the incremental independence test in the
    probe make exactly the moves of the all-Fraction reference."""

    def test_seeded_lattices(self, mixed2):
        # the last two are bases of the radius-sweep benchmark's kind
        lattices = ([mixed2] + seeded_lattices(4040, 8, n_max=3, entry_bound=3)
                    + [random_lattice(s, 3, 3, min_lambda1_sq=16) for s in (1001, 2003)])
        deltas = [F(0), F(1, 5), F(1, 4), F(3, 10)]
        for i, L in enumerate(lattices):
            top = 4 * max(linalg.norm_sq(r) for r in L.basis)
            norms = sorted({nsq for _, nsq in list_vectors(L, top)})
            for j, r2 in enumerate((norms[0], norms[min(2, len(norms) - 1)])):
                delta = deltas[(i + j) % len(deltas)]
                want = reference_probe_worst_distance(L, delta, r2, FAST)
                assert probe_worst_distance(L, delta, r2, FAST) == want, (L.basis, delta, r2)

    def test_rounding_ties(self, z2, skew2):
        # u.x = 1/2 and 3/2 for basis vectors u: nearest integers 0 and 2
        for L in (z2, skew2):
            W = dual(L).basis
            tie = linalg.vadd(linalg.vscale(F(1, 2), W[0]), linalg.vscale(F(3, 2), W[1]))
            for delta in (F(0), F(1, 4)):
                got = probe_worst_distance(L, delta, F(2), FAST, extra_starts=(tie,))
                want = reference_probe_worst_distance(L, delta, F(2), FAST, extra_starts=(tie,))
                assert got == want


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=24)
deltas_below_half = st.fractions(min_value=0, max_value=F(1, 2),
                                 max_denominator=12).filter(lambda d: d < F(1, 2))


@given(st.integers(-10**6, 10**6), st.integers(1, 1000))
def test_round_half_even_matches_fraction_round(N, Q):
    assert _round_half_even(N, Q) == round(F(N, Q))


@st.composite
def _slab_systems(draw):
    """Independent integer rows R (k <= n <= 4), integer targets T, common
    denominators D and dd, and a rational x."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    R = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                      min_size=k, max_size=k))
    assume(linalg.rank(linalg.as_mat(R)) == k)
    T = draw(st.lists(st.integers(-50, 50), min_size=k, max_size=k))
    x = draw(st.lists(rationals, min_size=n, max_size=n))
    return R, T, draw(st.integers(1, 12)), draw(st.integers(1, 12)), linalg.as_vec(x)


@given(_slab_systems())
def test_integer_repair_step_matches_almost_near_linear(system):
    R, T, D, dd, x = system
    want = almost_near_linear([[F(a, D) for a in r] for r in R], [F(t, dd) for t in T], x)
    assert _slab_step(R, T, D, dd, x) == want


def test_integer_repair_step_rejects_dependent_rows():
    with pytest.raises(DependentRows):
        _slab_step([[1, 2], [2, 4]], [1, 1], 1, 4, (F(1, 3), F(0)))


def _same_length_pair(n):
    vec = st.lists(rationals, min_size=n, max_size=n)
    return st.tuples(vec, vec)


@given(st.integers(1, 3).flatmap(_same_length_pair), deltas_below_half)
def test_integer_slab_test_matches_fraction(ux, delta):
    u, x = (linalg.as_vec(v) for v in ux)
    slabs = _Slabs([u], delta)
    assert bool(slabs.violated(*slabs.products(x))) == (dist_to_integers(linalg.dot(u, x)) > delta)


class TestStabilityRadius:
    def test_line_frozen_curve(self, z1):
        probe = stability_radius(z1, F(1, 4), F(1, 100), FAST)
        assert probe.radius_grid == (1, 4, 9)
        assert probe.f_hat_sq == (F(1, 16), F(1, 64), F(1, 144))
        assert probe.estimated_r_sq == 9
        assert probe.scaling_steps == 3
        assert probe.reduction_kind == "minkowski"
        assert probe.levels_dropped == 0

    def test_curve_monotone_and_witnessed(self, z2):
        probe = stability_radius(z2, F(1, 4), F(1, 100), FAST)
        for a, b in zip(probe.f_hat_sq, probe.f_hat_sq[1:]):
            assert a >= b
        for r2, f, w in zip(probe.radius_grid, probe.f_hat_sq, probe.witnesses):
            assert check_hypothesis(z2, w, F(1, 4), r2).holds
            assert near_dual_vector(z2, w).dist_sq == f
        assert probe.estimated_r_sq == 9

    def test_estimate_within_sufficient_level(self, mixed2):
        probe = stability_radius(mixed2, F(1, 4), F(1, 100), FAST)
        assert probe.estimated_r_sq <= probe.sufficient_radius_sq
        assert probe.sufficient_bound_sq <= F(1, 100)
        assert probe.f_hat_sq[-1] <= F(1, 100)

    def test_one_voronoi_cell_per_lattice(self, monkeypatch):
        preps, solves, cells = [], [], []
        real_lll, real_solve = enumeration._lll_rows, linalg.solve_matrix
        real_upper = enumeration._covering_upper_sq
        # here _lll_rows, a solve on the basis of L and _covering_upper_sq are
        # called only by the builds of _prep, dual and the cell
        monkeypatch.setattr(enumeration, "_lll_rows",
                            lambda B, delta: preps.append(B) or real_lll(B, delta))
        monkeypatch.setattr(linalg, "solve_matrix",
                            lambda M, R: solves.append(R) or real_solve(M, R))
        monkeypatch.setattr(enumeration, "_covering_upper_sq",
                            lambda K, budget: cells.append(K) or real_upper(K, budget))
        L = random_lattice(11, 3, 3)
        probe = stability_radius(L, F(1, 4), F(1, 100), FAST, max_levels=3)
        assert len(probe.radius_grid) == 3
        Ld = dual(L)
        assert sorted(map(id, preps)) == sorted((id(L.basis), id(Ld.basis)))
        assert sum(R is L.basis for R in solves) == 1
        assert len(cells) == 1 and cells[0] is Ld

    def test_levels_dropped(self, mixed2):
        # the norms 4a^2 + b^2/4 of mixed2 up to its sufficient radius^2 256
        norms = {F(4 * a * a) + F(b * b, 4) for a in range(9) for b in range(33)}
        levels = len([q for q in norms if 0 < q <= 256])
        assert levels == 152
        for max_levels in (1, 4):
            probe = stability_radius(mixed2, F(1, 4), F(1, 100), FAST, max_levels=max_levels)
            assert probe.sufficient_radius_sq == 256
            assert len(probe.radius_grid) == max_levels
            assert probe.levels_dropped == levels - max_levels

    def test_curve_that_never_dips_rejected(self, z1, monkeypatch):
        monkeypatch.setattr(stability, "probe_worst_distance",
                            lambda L, delta, r2, cfg, **kw: (F(1), (F(0),)))
        with pytest.raises(CertificationFailed):
            stability_radius(z1, F(1, 4), F(1, 100), FAST)

    def test_parameters_validated(self, z1):
        with pytest.raises(ValueError):
            stability_radius(z1, F(1, 3), F(1, 100), FAST)
        with pytest.raises(ValueError):
            stability_radius(z1, F(1, 4), F(0), FAST)
        with pytest.raises(ValueError):
            stability_radius(z1, F(1, 4), F(1, 100), FAST, max_levels=0)


class TestDegenerateFamily:
    def test_flattening_dual_direction(self):
        fam = degenerate_family(1, [10], cfg=FAST)[0]
        assert fam.minima_sq == (1, 100)
        assert fam.dual_minima_sq == (F(1, 100), 1)
        assert fam.mu_dual_sq == F(101, 400)
        assert fam.probe.estimated_r_sq <= fam.probe.sufficient_radius_sq

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            degenerate_family(1, [0], cfg=FAST)

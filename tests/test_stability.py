import sys
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, strategies as st

from latstab import (
    BudgetExceeded,
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
from latstab.latfile import parse_lattice_file
from latstab.lattice import dist_to_integers
from latstab.linalg import _round_half_even
from latstab.stability import _slab_step, _violated
from conftest import seeded_lattices
from oracles import reference_almost_near_linear, reference_probe_worst_distance

FAST = ProbeConfig(seed=0, restarts=8)
GOLDEN = Path(__file__).parent / "golden"


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
        # the step's sigma is the last column of [H | rho] after elimination
        real = linalg._eliminate

        def wrong(rows, ncols):
            pivots, d = real(rows, ncols)
            if sys._getframe(1).f_code is stability._slab_step.__code__:
                rows[0] = [*rows[0][:-1], rows[0][-1] + 1]
            return pivots, d

        monkeypatch.setattr(linalg, "_eliminate", wrong)
        with pytest.raises(CertificationFailed, match="does not solve A y = b"):
            almost_near_linear(((F(1), F(1)),), (F(1),), (F(3, 5), F(3, 5)))

    @pytest.mark.parametrize("corrupt, message", [
        # (AA^T)^-1 r changes, so A (x - y) = r breaks
        (lambda G: ((G[0][0] + F(1, 7), G[0][1]), G[1]), "differs from the residual"),
        # r = (1, 0) does not see the second column, but the trace shrinks to
        # 3/4 and the bound sigma_min^2 >= 4/3 exceeds residual^2 / correction^2 = 1
        (lambda G: (G[0], (G[1][0], -G[1][1])), "exceeds residual"),
    ], ids=["residual-identity", "sigma-bound"])
    def test_residual_identities_checked(self, monkeypatch, corrupt, message):
        real = linalg.invert
        monkeypatch.setattr(linalg, "invert", lambda M: corrupt(real(M)))
        with pytest.raises(CertificationFailed, match=message):
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

    def test_pair_out_of_bounds_is_a_violation(self, mixed2, monkeypatch):
        """Each lattice's last minimum times 100 puts both pairs of minima past
        m^2 while the three covering checks still hold."""
        real = stability.successive_minima

        def inflated(K, node_budget):
            got = real(K, node_budget=node_budget)
            return replace(got, minima_sq=(*got.minima_sq[:-1], 100 * got.minima_sq[-1]))

        monkeypatch.setattr(stability, "successive_minima", inflated)
        rep = transference_check(mixed2)
        assert [c.within_rank_bound for c in rep.per_k] == [False, False]
        assert {rep.covering_pair.verdict, rep.covering_pair_factorial.verdict,
                rep.dual_basis_bound.verdict} == {"satisfied"}
        assert rep.any_violation and not rep.all_satisfied

    def test_rank_five_uses_interval(self):
        rows = tuple(tuple(F(2 if i == j else 0) for j in range(5)) for i in range(5))
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

    def test_negative_radius_rejected(self, z1):
        with pytest.raises(ValueError, match="radius_sq must be nonnegative, got -1"):
            probe_worst_distance(z1, F(1, 4), -1, FAST)

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
        # the ascent's steps overshoot every slab by 1/3 (the push builds its
        # candidates in a comprehension, a frame of its own before Python 3.12)
        real = stability._lowest

        def overshoot(Y, p):
            X, q = real(Y, p)
            if "push" in (sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name):
                return real([3 * a + q for a in X], 3 * q)
            return X, q

        monkeypatch.setattr(stability, "_lowest", overshoot)
        with pytest.raises(CertificationFailed, match="witness violates the hypothesis"):
            probe_worst_distance(z1, F(1, 4), F(1), FAST)

    def test_rank_four_starts_from_the_cell(self):
        """With the dual cell's vertices among the starts, the rank-4 probe
        at r^2 = 44 finds f^2 > 1/100, so stability-radius at eps^2 = 1/100
        cannot stop at 44."""
        L = parse_lattice_file(GOLDEN / "r4.txt")
        f, w = probe_worst_distance(L, F(1, 4), 44, ProbeConfig(restarts=0))
        assert f == F(57599, 5324928) > F(1, 100)
        assert near_dual_vector(L, w).dist_sq == f

    def test_searches_each_point_once(self, z2, monkeypatch):
        # the origin is not ascended, no start twice, and no ascent re-searches
        # the point it has just stepped to
        targets = []
        real = stability._closest

        def counted(L, t, budget):
            targets.append((tuple(t[0]), t[1]))
            return real(L, t, budget)

        monkeypatch.setattr(stability, "_closest", counted)
        assert probe_worst_distance(z2, F(1, 4), F(1), FAST) == (F(1, 8), (F(-1, 4), F(-1, 4)))
        assert targets and len(set(targets)) == len(targets)
        assert ((0, 0), 1) not in targets

    def test_one_step_and_one_search_per_point_and_sweep(self, monkeypatch):
        # a point's slab scan resumes at the next level and its step is kept; a
        # search is kept per target. Without the tables the sweep below makes
        # 5 186 steps and 780 searches on the same arguments
        calls = {"_slab_step": [], "_closest": []}

        def counted(name):
            real = getattr(stability, name)

            def call(*args):
                calls[name].append(repr(args))
                return real(*args)
            return call

        for name in calls:
            monkeypatch.setattr(stability, name, counted(name))
        degenerate_family(1, [10], cfg=ProbeConfig(seed=1))
        assert [len(c) for c in calls.values()] == [427, 353]
        assert all(len(set(c)) == len(c) for c in calls.values())


class TestProbeMatchesFractionReference:
    """The integer slab tests and the incremental independence test in the
    probe make exactly the moves of the all-Fraction reference."""

    def test_seeded_lattices(self, mixed2, monkeypatch):
        # the last two are bases of the radius-sweep benchmark's kind; an
        # ascent capped at one or two points stops where the reference does
        lattices = ([mixed2] + seeded_lattices(4040, 8, n_max=3, entry_bound=3)
                    + [random_lattice(s, 3, 3, min_lambda1_sq=16) for s in (1001, 2003)])
        deltas = [F(0), F(1, 5), F(1, 4), F(3, 10)]
        caps = (stability.ASCENT_CAP, 1, 2)
        for i, L in enumerate(lattices):
            top = 4 * max(linalg.norm_sq(r) for r in L.basis)
            norms = sorted({nsq for _, nsq in list_vectors(L, top)})
            for j, r2 in enumerate((norms[0], norms[min(2, len(norms) - 1)])):
                delta = deltas[(i + j) % len(deltas)]
                for cap in caps:
                    monkeypatch.setattr(stability, "ASCENT_CAP", cap)
                    want = reference_probe_worst_distance(L, delta, r2, FAST, max_iters=cap)
                    assert probe_worst_distance(L, delta, r2, FAST) == want, \
                        (L.basis, delta, r2, cap)

    def test_rank_four_golden_and_rank_five(self):
        """r4.txt starts from the 120 vertices of its dual cell; 2 I_5 lies
        above the Minkowski cap, starts from half-vectors only, and its
        symmetric witnesses of equal distance go to the tie rule."""
        L = parse_lattice_file(GOLDEN / "r4.txt")
        cfg = ProbeConfig(restarts=0)
        for r2 in (21, 44):
            want = reference_probe_worst_distance(L, F(1, 4), r2, cfg)
            assert probe_worst_distance(L, F(1, 4), r2, cfg) == want
        rows = tuple(tuple(F(2 if i == j else 0) for j in range(5)) for i in range(5))
        for r2 in (4, 8, 16):
            want = reference_probe_worst_distance(Lattice(rows), F(1, 4), r2, FAST)
            assert probe_worst_distance(Lattice(rows), F(1, 4), r2, FAST) == want

    def test_rounding_ties(self, z2, skew2, monkeypatch):
        # u.x = 1/2 and 3/2 for basis vectors u: nearest integers 0 and 2; the
        # point xi = (1/2, 3/2) is the probe's one seeded start
        monkeypatch.setattr(stability, "SplitMix64",
                            lambda seed: SimpleNamespace(fraction=iter((F(1, 2), F(3, 2))).__next__))
        for L in (z2, skew2):
            W = dual(L).basis
            tie = linalg.vadd(linalg.vscale(F(1, 2), W[0]), linalg.vscale(F(3, 2), W[1]))
            for delta in (F(0), F(1, 4)):
                got = probe_worst_distance(L, delta, F(2), replace(FAST, restarts=1))
                want = reference_probe_worst_distance(L, delta, F(2), replace(FAST, restarts=0),
                                                      extra_starts=(tie,))
                assert got == want

    def test_sweep_is_the_warm_started_reference(self, monkeypatch):
        """Before the backward pass, each level of a sweep is the reference
        probe started also from the witnesses of the levels below it."""
        real = stability._probe_levels
        sweeps = []

        def recorded(L, delta, C, levels, cfg):
            sweeps.append((L, delta, [r2 for r2, _ in levels], cfg, stability.ASCENT_CAP, []))
            for got in real(L, delta, C, levels, cfg):
                sweeps[-1][-1].append(got)
                yield got

        monkeypatch.setattr(stability, "_probe_levels", recorded)
        # on these bases, a sweep without the warm starts misses a level's answer
        for seed, n, m in ((5, 2, 2), (2, 3, 2), (8, 3, 3)):
            L = random_lattice(seed, n, m, entry_bound=3)
            stability_radius(L, F(1, 4), F(1, 100), FAST, max_levels=4)
        # on these, a repair step taken from fewer than m violated rows and kept
        # after a later level's rows complete the choice goes wrong at some level,
        # both with ascents uncapped and capped at 1 point, the repaired start
        for cap in (stability.ASCENT_CAP, 1):
            with monkeypatch.context() as capped:
                capped.setattr(stability, "ASCENT_CAP", cap)
                for seed, n, delta in ((9, 2, F(3, 10)), (16, 2, F(1, 4)), (6, 3, F(1, 4))):
                    stability_radius(random_lattice(seed, n, 2, entry_bound=3), delta,
                                     F(1, 100), ProbeConfig(seed=0, restarts=4), max_levels=12)
        rows = tuple(tuple(F(2 if i == j else 0) for j in range(5)) for i in range(5))
        stability_radius(Lattice(rows), F(1, 4), F(1, 4), FAST, max_levels=2)
        r4 = parse_lattice_file(GOLDEN / "r4.txt")
        listing = list_vectors(r4, 44).vectors
        norms = [nsq for _, nsq in listing]
        list(stability._probe_levels(r4, F(1, 4), [c for c, _ in listing],
                                     [(r2, bisect_right(norms, r2)) for r2 in sorted(set(norms))],
                                     ProbeConfig(restarts=0)))
        assert {L.rank for L, *_ in sweeps} == {2, 3, 4, 5}
        assert {cap for *_, cap, _ in sweeps} == {1, stability.ASCENT_CAP}
        # the cap binds: some capped sweep finds less than the same sweep uncapped
        runs = {(L.basis, delta, cap): got for L, delta, _, _, cap, got in sweeps}
        assert any(got != runs[B, delta, stability.ASCENT_CAP]
                   for (B, delta, cap), got in runs.items() if cap == 1)
        for L, delta, radii, cfg, cap, got in sweeps:
            assert len(got) == len(radii) > 1
            for i, r2 in enumerate(radii):
                earlier = tuple(w for _, w in got[:i])
                assert got[i] == reference_probe_worst_distance(
                    L, delta, r2, cfg, max_iters=cap, extra_starts=earlier), (L.basis, r2)


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=24)
deltas_below_half = st.fractions(min_value=0, max_value=F(1, 2),
                                 max_denominator=12).filter(lambda d: d < F(1, 2))


@given(st.integers(-10**6, 10**6), st.integers(1, 1000))
def test_round_half_even_matches_fraction_round(N, Q):
    assert _round_half_even(N, Q) == round(F(N, Q))


@st.composite
def _slab_systems(draw):
    """A rational basis B (rank m <= 4, dimension m or m + 1), independent
    integer coordinate rows C (k <= m), integer targets T over a common
    denominator dd, a positive scale s of the Gram matrix and a rational
    point xi in coordinates of the dual basis."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, m + 1))
    B = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    assume(linalg.rank(linalg.as_mat(B)) == m)
    k = draw(st.integers(1, m))
    C = draw(st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m),
                      min_size=k, max_size=k))
    assume(linalg.rank(linalg.as_mat(C)) == k)
    T = draw(st.lists(st.integers(-50, 50), min_size=k, max_size=k))
    xi = draw(st.lists(rationals, min_size=m, max_size=m))
    return (Lattice(linalg.as_mat(B)), C, T, draw(st.integers(1, 12)), draw(st.integers(1, 5)),
            linalg.as_vec(xi))


@given(_slab_systems())
def test_integer_repair_step_matches_almost_near_linear(system):
    """almost_near_linear is the Fraction formula's least-squares point, and
    the step in dual coordinates is that ambient point for the rows u = c B,
    read back by xi_i = b_i . y, in lowest terms."""
    L, C, T, dd, s, xi = system
    A = [linalg.vec_mat(linalg.as_vec(c), L.basis) for c in C]
    b, x = [F(t, dd) for t in T], linalg.vec_mat(xi, dual(L).basis)
    y = reference_almost_near_linear(A, b, x)
    assert almost_near_linear(A, b, x) == y
    want = linalg._scaled([linalg.dot(v, y) for v in L.basis])
    Gz = [[s * a for a in row] for row in linalg.clear_denominators(L.gram_matrix)[0]]
    assert _slab_step(C, T, dd, Gz, *linalg._scaled(xi)) == want


def test_integer_repair_step_rejects_dependent_rows():
    with pytest.raises(DependentRows):
        _slab_step([[1, 2], [2, 4]], [1, 1], 4, [[1, 0], [0, 1]], (1, 0), 3)


def _same_length_pair(n):
    vec = st.lists(rationals, min_size=n, max_size=n)
    return st.tuples(vec, vec)


@given(st.integers(1, 3).flatmap(_same_length_pair), deltas_below_half)
def test_integer_slab_test_matches_fraction(cxi, delta):
    c, xi = [round(a) for a in cxi[0]], linalg.as_vec(cxi[1])
    X, q = linalg._scaled(xi)
    got = _violated([sum(a * b for a, b in zip(c, X))], q, delta.numerator, delta.denominator)
    assert bool(got) == (dist_to_integers(linalg.dot(c, xi)) > delta)


@st.composite
def slab_cases(draw):
    """Distinct integer rows C, a point X / q and delta = dn / dd < 1/3; when
    the first row has an entry +-1, the point may lie exactly on a face
    k +- delta of that row's slab."""
    m = draw(st.integers(1, 3))
    C = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * m), min_size=1, max_size=6, unique=True))
    dd = draw(st.integers(1, 24))
    dn = draw(st.integers(0, (dd - 1) // 3))
    X = draw(st.lists(st.integers(-60, 60), min_size=m, max_size=m))
    q = draw(st.integers(1, 40))
    j = next((j for j, a in enumerate(C[0]) if a in (1, -1)), None)
    on_face = j is not None and draw(st.booleans())
    if on_face:
        # solve C[0].X = (k dd +- dn) r for X[j] at q = dd r
        k, s, r = draw(st.integers(-3, 3)), draw(st.sampled_from((1, -1))), draw(st.integers(1, 5))
        q, X[j] = dd * r, 0
        X[j] = C[0][j] * ((k * dd + s * dn) * r - sum(a * b for a, b in zip(C[0], X)))
    return C, tuple(X), q, F(dn, dd), on_face


@given(slab_cases())
def test_integer_slab_test_flags_the_hypothesis_violations(case):
    """_violated, the probe's slab test on N = c.X, picks exactly the rows
    that _violations, the hypothesis in plain Fractions, reports; a point on
    a face k +- delta is feasible for that row."""
    C, X, q, delta, on_face = case
    Ns = [sum(a * b for a, b in zip(c, X)) for c in C]
    Bx = tuple(F(a, q) for a in X)
    if on_face:
        assert dist_to_integers(Ns[0] / F(q)) == delta
    flagged = {v.coords for v in stability._violations(C, Bx, delta)}
    got = _violated(Ns, q, delta.numerator, delta.denominator)
    assert got == [i for i, c in enumerate(C) if c in flagged]
    assert not (on_face and 0 in got)


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

    def test_rank_five_point_refutes_radius_27(self):
        """A point feasible at r^2 = 27 lies farther than 1/10 from the dual, so
        the least radius for delta = 1/4, epsilon^2 = 1/100 is above 27 on this
        rank-5 lattice; the point fails the hypothesis at r^2 = 28."""
        L = random_lattice(1, 5, 5, entry_bound=3)
        x = (F(-1, 172), F(1, 86), F(3, 172), F(0), F(-17, 172))
        at27 = check_hypothesis(L, x, F(1, 4), 27)
        assert at27.holds and at27.checked_count == 27
        assert not check_hypothesis(L, x, F(1, 4), 28).holds
        dist_sq = near_dual_vector(L, x).dist_sq
        assert dist_sq == F(303, 29584) and dist_sq > F(1, 100)

    def test_rank_five_probe_reaches_the_exact_maximum_at_27(self):
        """Started also from the dual's holes that the covering ascent finds, the
        probe at r^2 = 27 reaches 303/29584, the exact maximum there, with a
        witness feasible at 27; from the half-vectors alone it stopped at
        23345/2396304, below 1/100, and the sweep reported 27 for 28."""
        L = random_lattice(1, 5, 5, entry_bound=3)
        f, w = probe_worst_distance(L, F(1, 4), 27)
        assert f == F(303, 29584) > F(1, 100)
        assert check_hypothesis(L, w, F(1, 4), 27).holds
        assert near_dual_vector(L, w).dist_sq == f

    def test_start_order_does_not_matter(self, monkeypatch):
        """Ties go to the least ambient witness, so the dual's holes (here the
        cell's vertices) given in reverse order change no sweep and no single probe,
        with ascents uncapped and capped at 1 point, the repaired start. The cap
        binds: on the last small basis the capped sweep finds less."""
        cfg = ProbeConfig(seed=0, restarts=4)

        def results():
            small = [Lattice(linalg.as_mat(B)) for B in
                     ([[1, 0], [0, 1]], [[1, 0], [0, 10]], [[2, 1], [1, 3]], [[1, -3], [2, 5]])]
            mixed = parse_lattice_file(GOLDEN / "mixed.txt")
            return ([stability_radius(L, F(1, 4), F(1, 100), cfg, max_levels=12) for L in small]
                    + [stability_radius(mixed, F(1, 4), F(1, 100), cfg, max_levels=8)]
                    + [probe_worst_distance(L, F(1, 4), 4, cfg) for L in small])

        want = {stability.ASCENT_CAP: results()}
        monkeypatch.setattr(stability, "ASCENT_CAP", 1)
        want[1] = results()
        assert [a == b for a, b in zip(*want.values())] == [True] * 3 + [False] + [True] * 5
        real = stability._deep_holes
        reversed_for = []

        def reversed_holes(Ld, budget):
            reversed_for.append(Ld)
            pairs, *rest = real(Ld, budget)
            return (pairs[::-1], *rest)

        monkeypatch.setattr(stability, "_deep_holes", reversed_holes)
        for cap, results_at_cap in want.items():
            monkeypatch.setattr(stability, "ASCENT_CAP", cap)
            assert [got == w for got, w in zip(results(), results_at_cap)] == [True] * 9
        assert len(reversed_for) == 18

    def test_backward_pass_lifts_a_level(self, monkeypatch):
        """Here the probe at r^2 = 34 finds less than the one at 36 does, and
        the witness of 36 is feasible at 34 too, so the pass carries it down."""
        raw = {}
        real = stability._probe_levels

        def recorded(L, delta, C, levels, cfg):
            for (r2, _), got in zip(levels, real(L, delta, C, levels, cfg)):
                raw[r2] = got
                yield got
        monkeypatch.setattr(stability, "_probe_levels", recorded)
        L = random_lattice(18, 2, 2, entry_bound=4, min_lambda1_sq=4)
        got = stability_radius(L, F(1, 4), F(1, 100), ProbeConfig(restarts=0), max_levels=8)
        i = got.radius_grid.index(34)
        assert got.radius_grid[i + 1] == 36
        assert raw[34][0] == F(37, 11664)
        assert got.f_hat_sq[i] == raw[36][0] == F(1, 144)
        assert got.witnesses[i] == got.witnesses[i + 1] == raw[36][1]

    def test_rank_five_falls_back_to_lll(self, monkeypatch):
        """Above the Minkowski cap the sweep reduces by LLL, and the probe starts
        from the covering ascent's end points and the single and all-ones
        half-vectors, not from the cell's vertices. The sweep's LLL basis is the
        one the searches hold, so LLL runs once on L and once on its dual."""
        from latstab import reduction

        calls = []
        real = reduction._lll_rows
        monkeypatch.setattr(enumeration, "_lll_rows", lambda B, d: calls.append(B) or real(B, d))
        monkeypatch.setattr(reduction, "_lll_rows", enumeration._lll_rows)
        rows = tuple(tuple(F(2 if i == j else 0) for j in range(5)) for i in range(5))
        L = Lattice(rows)
        got = stability_radius(L, F(1, 4), F(1, 4), ProbeConfig(restarts=0), max_levels=2)
        assert sorted(map(id, calls)) == sorted((id(L.basis), id(dual(L).basis)))
        assert got.reduction_kind == "lll"
        assert got.radius_grid == (4, 16)
        assert got.f_hat_sq == (F(5, 64), F(1, 128))

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

    def test_budget_error_names_the_probe_level(self, z2, monkeypatch):
        # no budget exhausts a probe search of Z^2 before the listing of its
        # levels, so the sweep from the level r^2 = 2 on runs on a zero budget
        real = stability._probe_levels

        def starved(L, delta, C, levels, cfg):
            yield from real(L, delta, C, levels[:1], cfg)
            yield from real(L, delta, C, levels[1:], replace(cfg, node_budget=0))

        monkeypatch.setattr(stability, "_probe_levels", starved)
        with pytest.raises(BudgetExceeded) as err:
            stability_radius(z2, F(1, 4), F(1, 100), FAST)
        assert err.value.budget == 0
        assert str(err.value) == ("closest_vector at rank 2, radius^2 1/2 exceeded node budget 0, "
                                  "at probe level radius^2 2")

    def test_curve_that_never_dips_rejected(self, z1, monkeypatch):
        monkeypatch.setattr(stability, "_probe_levels",
                            lambda L, delta, C, levels, cfg: ((F(1), (F(0),)) for _ in levels))
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
    @pytest.mark.parametrize("c", [0, -1, F(-1, 2)])
    def test_nonpositive_c_rejected_without_members(self, c):
        with pytest.raises(ValueError, match="family scales must be positive"):
            degenerate_family(c, [])

    def test_scales_checked_before_any_member(self, monkeypatch):
        monkeypatch.setattr(stability, "stability_radius",
                            lambda *a, **kw: pytest.fail("a member was computed"))
        with pytest.raises(ValueError, match="family scales must be positive"):
            degenerate_family(1, [10, 0])

    def test_flattening_dual_direction(self):
        fam = degenerate_family(1, [10], cfg=FAST)[0]
        assert fam.minima_sq == (1, 100)
        assert fam.dual_minima_sq == (F(1, 100), 1)
        assert fam.mu_dual_sq == F(101, 400)
        assert fam.probe.estimated_r_sq <= fam.probe.sufficient_radius_sq

    def test_one_listing_for_reduction_and_minima(self, monkeypatch):
        # the sweep's Minkowski reduction and minima_sq both walk the listing
        # of diag(1, 10) up to its longest working row, radius^2 100
        listed = []
        real = enumeration.list_vectors

        def counted(K, r2, node_budget):
            listed.append((K, r2))
            return real(K, r2, node_budget=node_budget)

        monkeypatch.setattr(enumeration, "list_vectors", counted)
        monkeypatch.setattr(stability, "list_vectors", counted)
        fam = degenerate_family(1, [10], cfg=FAST)[0]
        assert fam.minima_sq == (1, 100) and fam.probe.reduction_kind == "minkowski"
        assert sum(K is fam.lattice and r2 == 100 for K, r2 in listed) == 1

    def test_diagnostics_run_at_the_configured_budget(self, monkeypatch):
        # the minima of both sides and the dual's exact covering radius, whose
        # certificate is a CVP, search under cfg.node_budget like the probe
        budgets, caps = [], []
        for name in ("successive_minima", "covering_radius"):
            real = getattr(stability, name)
            monkeypatch.setattr(stability, name, lambda K, *a, real=real, **kw:
                                budgets.append(kw.get("node_budget")) or real(K, *a, **kw))

        class Recorded(enumeration._Budget):
            def __init__(self, cap, *rest):
                caps.append(cap)
                super().__init__(cap, *rest)

        monkeypatch.setattr(enumeration, "_Budget", Recorded)
        degenerate_family(1, [10], cfg=replace(FAST, node_budget=123_457))
        assert budgets == [123_457] * 3
        assert set(caps) == {123_457}

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            degenerate_family(1, [0], cfg=FAST)

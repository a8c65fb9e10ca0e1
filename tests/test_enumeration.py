from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, strategies as st

from latstab import (
    BudgetExceeded,
    CertificationFailed,
    Lattice,
    NotInSpan,
    RankTooLarge,
    closest_vector,
    covering_radius,
    dual,
    enumeration,
    linalg,
    list_vectors,
    shortest_vector,
    successive_minima,
)
from latstab.enumeration import DEFAULT_NODE_BUDGET, ShortVectorList, _Budget, _prep, _se_scan
from latstab.latfile import parse_lattice_file
from latstab.generate import random_lattice
from conftest import seeded_lattices
from oracles import (babai_rounding_sq, box_closest, box_minima, box_vectors, cell_vertices,
                     gs_fractions, reference_closest_vector, reference_gram_schmidt,
                     reference_cut, reference_se_scan, reference_voronoi_vertex_data)


class TestListVectors:
    def test_unit_square_counts(self, z2):
        assert len(list_vectors(z2, F(1))) == 2
        assert len(list_vectors(z2, F(2))) == 4
        assert len(list_vectors(z2, F(4))) == 6

    def test_sorted_and_sign_canonical(self, z2):
        got = list_vectors(z2, F(2)).vectors
        assert got == (((0, 1), F(1)), ((1, 0), F(1)), ((1, -1), F(2)), ((1, 1), F(2)))

    def test_rational_radius(self, mixed2):
        got = list_vectors(mixed2, F(5, 4)).vectors
        assert got == (((0, 1), F(1, 4)), ((0, 2), F(1)))

    def test_radius_is_rounded_down_to_the_scan_scale(self):
        """tests/golden/mixed.txt has S = 4, so the radius^2 9/4 - 1/8 enters the
        scan as floor(17/2) = 8 and must leave out (0, 3), whose N is 9."""
        L = parse_lattice_file(Path(__file__).parent / "golden" / "mixed.txt")
        assert _prep(L).S == 4
        assert ((0, 3), F(9, 4)) in list_vectors(L, F(9, 4)).vectors
        assert all(c != (0, 3) for c, _ in list_vectors(L, F(9, 4) - F(1, 8)))

    def test_matches_box_oracle_on_random_lattices(self):
        for L in seeded_lattices(101, 12, n_max=3, entry_bound=3):
            radius = 2 * max(linalg.norm_sq(r) for r in L.basis)
            assert list_vectors(L, radius).vectors == tuple(box_vectors(L, radius))

    def test_negative_radius_rejected(self, z2):
        assert len(list_vectors(z2, 0)) == 0
        with pytest.raises(ValueError, match="radius_sq must be nonnegative, got -1/4"):
            list_vectors(z2, F(-1, 4))


class TestShortestAndMinima:
    def test_shortest_frozen(self, mixed2):
        assert shortest_vector(mixed2) == ((0, 1), F(1, 4))

    def test_minima_frozen(self):
        L = Lattice(((F(1), F(0)), (F(1, 2), F(10))))
        mins = successive_minima(L)
        assert mins.minima_sq == (F(1), F(401, 4))

    def test_minima_match_box_oracle(self):
        for L in seeded_lattices(202, 10, n_max=3, entry_bound=3):
            assert successive_minima(L).minima_sq == box_minima(L)

    def test_achieving_vectors_are_independent(self, z3):
        mins = successive_minima(z3)
        assert linalg.rank(linalg.as_mat(mins.achieving_vectors)) == 3

    def test_listing_short_of_full_rank_rejected(self, z2, monkeypatch):
        monkeypatch.setattr(enumeration, "list_vectors",
                            lambda L, r, node_budget: ShortVectorList(r, (((1, 0), F(1)),)))
        with pytest.raises(CertificationFailed):
            successive_minima(z2)


class TestClosestVector:
    def test_frozen_interior(self, z2):
        near = closest_vector(z2, (F(2, 5), F(3, 5)))
        assert near.point == (0, 1)
        assert near.dist_sq == F(8, 25)

    def test_frozen_skewed(self):
        L = Lattice(((F(1), F(0)), (F(3), F(1))))
        near = closest_vector(L, (0, F(9, 10)))
        assert near.coords == (-3, 1)
        assert near.dist_sq == F(1, 100)

    def test_tie_breaks_to_smallest_coords(self, z2):
        near = closest_vector(z2, (F(1, 2), 0))
        assert near.coords == (0, 0)
        assert near.dist_sq == F(1, 4)

    def test_outside_span_needs_project(self):
        L = Lattice(((F(1), F(0)),))
        with pytest.raises(NotInSpan):
            closest_vector(L, (F(1, 4), 1))
        near = closest_vector(L, (F(1, 4), 1), project=True)
        assert near.point == (0, 0)
        assert near.dist_sq == F(17, 16)

    def test_matches_box_oracle(self):
        lattices = seeded_lattices(303, 10, n_max=3, entry_bound=3)
        for idx, L in enumerate(lattices):
            t = tuple(F(idx + i + 1, 2 * idx + 3) for i in range(L.rank))
            x = linalg.vec_mat(t, L.basis)
            best, ties = box_closest(L, x)
            near = closest_vector(L, x)
            assert near.dist_sq == best
            assert near.coords == ties[0]

    def test_box_oracle_rejects_target_outside_span(self):
        L = Lattice(((F(1), F(0)),))
        with pytest.raises(ValueError, match="oracle targets must lie in span"):
            box_closest(L, (F(1, 4), 1))


def _scan_trace(scan, prep, t, radius_sq, cap, shrink=False):
    """Every leaf (coords, N) in visit order, N the squared distance at the
    scan's scale S q^2, the budget left and whether the budget ran out; the
    limit is radius_sq at that scale rounded down, and with shrink it follows
    the best leaf as in closest_vector."""
    T, q = linalg._scaled(t)
    scale = prep.S * q * q
    lim, leaves = [radius_sq.numerator * scale // radius_sq.denominator], []

    def on_leaf(c, N):
        leaves.append((c, N))
        if shrink and N < lim[0]:
            lim[0] = N

    budget = _Budget(cap, "scan", len(t), radius_sq)
    try:
        scan(prep, (T, q), lim, on_leaf, budget)
    except BudgetExceeded:
        return leaves, budget.left, True
    return leaves, budget.left, False


_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)
_coords = st.one_of(_rationals, st.integers(-8, 8).map(lambda k: F(2 * k + 1, 2)))


@st.composite
def _rational_bases(draw):
    """Independent rational rows, rank 1 to 6, in dimension up to rank + 1."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(m, m + 1))
    rows = draw(st.lists(st.lists(_rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    assume(linalg.rank(linalg.as_mat(rows)) == m)
    return Lattice(linalg.as_mat(rows))


class TestIntegerScan:
    """The integer scan against the Fraction scan it replaced: the same
    leaves in the same order with the same distances, the same node count,
    and a budget that runs out at the same tick."""

    @given(_rational_bases(), st.fractions(min_value=0, max_value=3, max_denominator=9))
    def test_listing_matches_reference(self, L, scale):
        prep = _prep(L)
        radius_sq = scale * max(linalg.norm_sq(r) for r in prep.rows)
        t = linalg.zeros(L.rank)
        want = _scan_trace(reference_se_scan, prep, t, radius_sq, 200_000)
        assert _scan_trace(_se_scan, prep, t, radius_sq, 200_000) == want

    @given(_rational_bases(), st.data())
    def test_cvp_with_shrinking_bound_matches_reference(self, L, data):
        prep = _prep(L)
        t = tuple(data.draw(st.lists(_coords, min_size=L.rank, max_size=L.rank)))
        start = babai_rounding_sq(prep, t)
        want = _scan_trace(reference_se_scan, prep, t, start, 200_000, shrink=True)
        assert _scan_trace(_se_scan, prep, t, start, 200_000, shrink=True) == want
        # closest_vector starts from the nearest-plane bound sum(gamma) / 4
        plane_sq = sum(gs_fractions(*linalg.gram_schmidt(prep.rows))[0]) / 4
        with pytest.raises(BudgetExceeded) as err:
            closest_vector(L, linalg.vec_mat(t, prep.rows), node_budget=0)
        assert str(err.value) == (f"closest_vector at rank {L.rank}, radius^2 {plane_sq} "
                                  f"exceeded node budget 0")

    def test_scan_integers_are_minimal(self):
        """M[i][i] is the lcm of the denominators of column i of mu, each column
        of M has gcd 1, S is the lcm of the M[i][i]^2 den(gamma_i), and
        w[i] M[i][i]^2 = gamma_i S, on integer bases and their rational duals."""
        lattices = seeded_lattices(23, 30, n_max=7, entry_bound=9)
        cleared = 0
        for K in lattices + [dual(L) for L in lattices]:
            prep = _prep(K)
            cleared += linalg.clear_denominators(prep.rows)[1] > 1
            bstar, mu = reference_gram_schmidt(prep.rows)
            gamma = [linalg.norm_sq(b) for b in bstar]
            M, m = prep.M, K.rank
            for i in range(m):
                assert M[i][i] == lcm(*(mu[j][i].denominator for j in range(i + 1, m)))
                assert gcd(*(M[j][i] for j in range(i, m))) == 1
                assert all(M[j][i] == mu[j][i] * M[i][i] for j in range(i, m))
                assert prep.w[i] * M[i][i] ** 2 == gamma[i] * prep.S
            assert prep.S == lcm(*(M[i][i] ** 2 * g.denominator for i, g in enumerate(gamma)))
        assert cleared > 10

    @given(_rational_bases(), st.data())
    def test_nearest_plane_start_changes_no_answer(self, L, data):
        """The scan seeded with sum(gamma) / 4 finds the same point, coordinates
        and distance as the Fraction scan seeded with the Babai rounding."""
        prep = _prep(L)
        t = tuple(data.draw(st.lists(_coords, min_size=L.rank, max_size=L.rank)))
        x = linalg.vec_mat(t, prep.rows)
        assert closest_vector(L, x) == reference_closest_vector(L, x)

    @given(_rational_bases(), st.data())
    def test_budget_runs_out_at_the_same_tick(self, L, data):
        prep = _prep(L)
        t = tuple(data.draw(st.lists(_coords, min_size=L.rank, max_size=L.rank)))
        radius_sq = 2 * babai_rounding_sq(prep, t) + 1
        _, left, _ = _scan_trace(reference_se_scan, prep, t, radius_sq, 200_000)
        nodes = 200_000 - left
        for cap in {0, nodes // 3, nodes - 1, nodes}:
            want = _scan_trace(reference_se_scan, prep, t, radius_sq, cap)
            assert want[2] == (cap < nodes)
            assert _scan_trace(_se_scan, prep, t, radius_sq, cap) == want

    @given(_rational_bases(), st.data())
    def test_coordinate_search_matches_closest_vector(self, L, data):
        """The search every query enters: the stored coordinates (X, q) reach
        the scan as working ones still in lowest terms, and give the
        distance and coordinates of the Fraction scan on the ambient point,
        ties included."""
        xi = tuple(data.draw(st.lists(_coords, min_size=L.rank, max_size=L.rank)))
        want = reference_closest_vector(L, linalg.vec_mat(xi, L.basis))
        X, q = linalg._scaled(xi)
        scanned = []
        with patch.object(enumeration, "_se_scan",
                          lambda prep, t, *rest: scanned.append(t) or _se_scan(prep, t, *rest)):
            got = enumeration._closest(L, (X, q), DEFAULT_NODE_BUDGET)
        assert got == (want.dist_sq, want.coords)
        (T, q_scan), = scanned
        assert q_scan == q and gcd(*T, q) == 1

    @pytest.mark.parametrize("t, shrink, ties", [
        ((F(1, 2), F(1, 2), F(1, 2)), True, 8),    # the deep hole: every cube corner
        ((F(1, 2), F(1, 2), F(1, 2)), False, 8),
        ((F(1, 2), F(0), F(-3, 2)), True, 4),
        ((F(0), F(0), F(0)), False, 1),
    ])
    def test_ties_in_the_cube_match_reference(self, z3, t, shrink, ties):
        prep = _prep(z3)
        want = _scan_trace(reference_se_scan, prep, t, F(3, 4), 10_000, shrink)
        assert _scan_trace(_se_scan, prep, t, F(3, 4), 10_000, shrink) == want
        assert len(want[0]) == ties and len({d for _, d in want[0]}) == 1

    def test_rank_twelve_listing_matches_reference(self, monkeypatch):
        """No golden case reaches rank 8 or more, so pin one rank-12 listing, up
        to the longest working row as successive_minima lists."""
        L = random_lattice(12001, 12, 12)
        prep = _prep(L)
        radius_sq = max(linalg.norm_sq(r) for r in prep.rows)
        t = linalg.zeros(12)
        want = _scan_trace(reference_se_scan, prep, t, radius_sq, 10_000_000)
        got = _scan_trace(_se_scan, prep, t, radius_sq, 10_000_000)
        assert got == want and len(want[0]) > 100
        listed = list_vectors(L, radius_sq)
        monkeypatch.setattr(enumeration, "_se_scan", reference_se_scan)
        assert list_vectors(L, radius_sq) == listed


class TestBudget:
    def test_budget_exceeded(self, z3):
        with pytest.raises(BudgetExceeded):
            list_vectors(z3, F(400), node_budget=50)

    def test_error_carries_cap(self, z3):
        with pytest.raises(BudgetExceeded) as err:
            list_vectors(z3, F(400), node_budget=50)
        assert err.value.budget == 50
        assert str(err.value) == "list_vectors at rank 3, radius^2 400 exceeded node budget 50"

    def test_level_ends_at_its_first_candidate_past_the_bound(self, z2, z3):
        """Z^2 up to radius^2 1, one tick per candidate tested, each level
        stopping at its first one past the bound: the top level tests c_1 = 0,
        1, -1 and 2 (past it), 4 ticks; under c_1 = 0 the bottom level tests
        c_0 = 0, 1, -1 and 2, 4 more; under c_1 = 1 and c_1 = -1 it tests
        c_0 = 0 and 1 (past it), 2 each. That is 12. A level that went on to
        test the other side once more after one side ran past would need 16."""
        assert len(list_vectors(z2, F(1), node_budget=12)) == 2
        with pytest.raises(BudgetExceeded):
            list_vectors(z2, F(1), node_budget=11)
        # Z^3: 4 ticks at the top, 12 under c_2 = 0 as above, and under each of
        # c_2 = 1 and -1 two at the middle level and two under its c_1 = 0
        assert len(list_vectors(z3, F(1), node_budget=24)) == 3
        with pytest.raises(BudgetExceeded):
            list_vectors(z3, F(1), node_budget=23)

    @pytest.mark.parametrize("search, cap, message", [
        # the search radius of a CVP is the nearest-plane bound, 3 * 1/4 on Z^3
        (lambda L, cap: closest_vector(L, (F(1, 3), F(1, 2), F(2, 3)), node_budget=cap), 2,
         "closest_vector at rank 3, radius^2 3/4"),
    ])
    def test_error_names_search(self, z3, search, cap, message):
        with pytest.raises(BudgetExceeded) as err:
            search(z3, cap)
        assert err.value.budget == cap
        assert str(err.value) == f"{message} exceeded node budget {cap}"


class TestCoveringRadius:
    def test_unit_square(self, z2):
        got = covering_radius(z2)
        assert got.exact
        assert got.lower_sq == got.upper_sq == F(1, 2)
        assert got.witness == (F(1, 2), F(1, 2))

    def test_line(self, z1):
        assert covering_radius(z1).lower_sq == F(1, 4)

    def test_diagonal_frozen(self, mixed2):
        got = covering_radius(mixed2)
        assert got.lower_sq == F(17, 16)
        assert got.witness == (1, F(1, 4))

    def test_cube(self, z3):
        assert covering_radius(z3).lower_sq == F(3, 4)

    def test_witness_distance_is_the_radius(self, skew2):
        got = covering_radius(skew2)
        assert closest_vector(skew2, got.witness).dist_sq == got.lower_sq

    def test_wrong_witness_rejected(self, z2, monkeypatch):
        xis, mu_sq, _ = enumeration._voronoi_vertex_data(z2, 10_000)
        monkeypatch.setattr(enumeration, "_voronoi_vertex_data",
                            lambda L, budget: (xis, mu_sq, (F(1, 2), F(1, 4))))
        with pytest.raises(CertificationFailed):
            covering_radius(z2)

    def test_missed_relevant_vector_rejected(self, monkeypatch):
        """A listing that stops at lambda_2 misses the relevant vector b1: the
        cell comes out as the parallelogram of b2 and b2 - b1, and its far
        corner lies nearer to b1 than to the origin."""
        L = Lattice(linalg.as_mat(((1, 0), (F(1, 2), F(3, 4)))))
        lam_sq = successive_minima(L).minima_sq  # kept on L at the full listing
        assert lam_sq == (F(13, 16), F(13, 16))
        full = enumeration.list_vectors
        monkeypatch.setattr(enumeration, "list_vectors",
                            lambda K, radius_sq, node_budget: full(K, lam_sq[-1], node_budget))
        with pytest.raises(CertificationFailed):
            covering_radius(L)

    def test_cell_cached_per_lattice_and_immutable(self, z2):
        first = enumeration._deep_holes(z2, 10_000)
        assert isinstance(first[0], tuple)
        assert enumeration._deep_holes(z2, 10_000) is first

    def test_cell_over_budget_is_not_kept(self, z2):
        with pytest.raises(BudgetExceeded):
            enumeration._deep_holes(z2, 1)
        first = enumeration._deep_holes(z2, 10_000)
        # a kept cell is returned whatever budget a later call passes
        assert enumeration._deep_holes(z2, 1) is first

    @pytest.mark.parametrize("rows, pairs, count, mu_sq", [
        (((1, 0), (0, 1)), 2, 4, F(1, 2)),
        (((1, 0), (0, 2)), 2, 4, F(5, 4)),  # 2L has the unique shortest class vector (2, 0)
        (((1, 0), (F(1, 2), F(3, 4))), 3, 6, F(169, 576)),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3, 8, F(3, 4)),
        (((1, 1, 0), (1, 0, 1), (0, 1, 1)), 6, 14, F(1)),  # fcc
        (((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 2), F(1, 2))), 7, 24, F(5, 16)),  # bcc
    ])
    def test_classical_cells(self, rows, pairs, count, mu_sq, monkeypatch):
        """Vertex count, radius and deepest hole, the facets of exactly the
        relevant pairs, and one solve: the parallelepiped's 2^m corners come
        from one elimination, and every later vertex from a cut."""
        solves = []
        solve_matrix = linalg.solve_matrix
        monkeypatch.setattr(linalg, "solve_matrix",
                            lambda M, R: solves.append(M) or solve_matrix(M, R))
        L = Lattice(linalg.as_mat(rows))
        xis, got_sq, witness = enumeration._voronoi_vertex_data(L, 10_000)
        verts = cell_vertices(L, xis)
        assert (len(verts), got_sq, linalg.norm_sq(witness)) == (count, mu_sq, mu_sq)
        assert witness in verts
        assert len(solves) == 1
        # v spans a facet iff the vertices on its plane x . v = |v|^2 / 2 span m - 1 dimensions
        facets = 0
        for c, nsq in list_vectors(L, 4 * mu_sq):
            v = linalg.vec_mat(linalg.as_vec(c), L.basis)
            on = [x for x in verts if linalg.dot(x, v) == nsq / 2]
            if on and linalg.rank([linalg.vsub(x, on[0]) for x in on[1:]]) == L.rank - 1:
                facets += 1
        assert facets == pairs

    def test_cell_matches_search_reference(self):
        """Coset-minimum relevance and facet-subset solves give the cell the
        per-candidate nearest-point searches give: same vertices in the same
        order, the same radius and the same deepest hole."""
        for L in seeded_lattices(707, 20, n_max=3, entry_bound=3):
            for K in (L, dual(L)):
                got = enumeration._voronoi_vertex_data(K, 100_000)
                assert got == reference_voronoi_vertex_data(K)

    def test_cell_pairs_lowest_and_symmetric(self):
        """Every vertex is a pair (X, q) in lowest terms with q > 0, and the
        vertex set is closed under negation, on both sides of each lattice."""
        for m in (2, 3, 4):
            for seed in range(3):
                L = random_lattice(900 + seed, m + 1, m, entry_bound=4)
                for K in (L, dual(L)):
                    pairs = enumeration._voronoi_vertex_data(K, DEFAULT_NODE_BUDGET)[0]
                    assert all(q > 0 and gcd(*X, q) == 1 for X, q in pairs)
                    assert {(tuple(-a for a in X), q) for X, q in pairs} == set(pairs)

    @pytest.mark.parametrize("name, rows, count, mu_sq", [
        ("Z4", [[int(i == j) for j in range(4)] for i in range(4)], 16, F(1)),
        ("D4", [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]], 24, F(1)),
        ("A4", [[1, -1, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 1, -1]],
         30, F(6, 5)),
        ("diag(1,2,3,5)", [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 5]],
         16, F(39, 4)),
        ("bidiagonal", [[2, 0, 0, 0], [1, 2, 0, 0], [0, 1, 2, 0], [0, 0, 1, 2]],
         54, F(765, 256)),
    ])
    def test_rank_four_cells_match_search_reference(self, name, rows, count, mu_sq):
        L = Lattice(linalg.as_mat(rows))
        got = enumeration._voronoi_vertex_data(L, 100_000)
        assert (len(got[0]), got[1]) == (count, mu_sq)
        assert got == reference_voronoi_vertex_data(Lattice(L.basis))

    def test_rank_four_golden_cells(self):
        """tests/golden/r4.txt: a generic cell on each side, up to the
        (m + 1)! = 120 vertices a rank-4 cell can have. Every vertex lies
        in the cell: the origin is a nearest lattice point to it."""
        L = parse_lattice_file(Path(__file__).parent / "golden" / "r4.txt")
        for K, count, mu_sq in ((L, 104, F(10559, 441)),
                                (dual(L), 120, F(66772529, 1152216576))):
            xis, got_sq, witness = enumeration._voronoi_vertex_data(K, DEFAULT_NODE_BUDGET)
            verts = cell_vertices(K, xis)
            assert (len(verts), got_sq, linalg.norm_sq(witness)) == (count, mu_sq, mu_sq)
            assert all(closest_vector(K, x).dist_sq == linalg.norm_sq(x) for x in verts)
            assert covering_radius(K).lower_sq == mu_sq

    def test_exact_capped_above_rank_four(self):
        """Above the cap the answer is the ascent's, labelled as not exact;
        on Z^5 its first start is the deep hole and the bounds meet."""
        rows = tuple(tuple(F(1 if i == j else 0) for j in range(5)) for i in range(5))
        got = covering_radius(Lattice(rows))
        assert not got.exact
        assert got.lower_sq == got.upper_sq == F(5, 4)
        with pytest.raises(RankTooLarge):
            enumeration._voronoi_vertex_data(Lattice(rows), DEFAULT_NODE_BUDGET)

    # the ascent runs only above the cap: with the cap at 0 it runs at every rank,
    # and each test below would otherwise pass on the exact cell

    def test_heuristic_brackets_exact(self, mixed2, monkeypatch):
        monkeypatch.setattr(enumeration, "MINKOWSKI_MAX_RANK", 0)
        monkeypatch.setattr(enumeration, "ASCENT_SEED", 3)
        got = covering_radius(mixed2)
        assert got.exact is False
        assert got.lower_sq <= F(17, 16) <= got.upper_sq

    def test_heuristic_finds_cube_hole(self, monkeypatch):
        monkeypatch.setattr(enumeration, "MINKOWSKI_MAX_RANK", 0)
        rows = tuple(tuple(F(1 if i == j else 0) for j in range(4)) for i in range(4))
        got = covering_radius(Lattice(rows))
        assert got.exact is False
        assert got.lower_sq == got.upper_sq == F(1)

    def test_heuristic_ascent_eliminates_nothing_per_evaluation(self, monkeypatch):
        """The ascent searches integer coordinates directly: its eliminations
        are the lattice's one-off ones, however many starts it climbs from."""
        monkeypatch.setattr(enumeration, "MINKOWSKI_MAX_RANK", 0)
        calls = []
        real = linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate",
                            lambda rows, ncols: calls.append(ncols) or real(rows, ncols))
        counts = []
        for restarts in (1, 4):
            monkeypatch.setattr(enumeration, "ASCENT_RESTARTS", restarts)
            calls.clear()
            L = parse_lattice_file(Path(__file__).parent / "golden" / "b7.txt")
            assert covering_radius(L).exact is False
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_mode_validated(self, z2):
        """The rank chooses the method; a method passed by position is refused."""
        with pytest.raises(TypeError):
            covering_radius(z2, "exact")


@pytest.fixture
def checked_cuts(monkeypatch):
    """Every cut of a cell is also made by the reference's scan over the whole
    cell and must come out identical; the list of the cuts' results."""
    cuts, real = [], enumeration._cut

    def checked(cell, A, h):
        got = real(cell, A, h)
        assert got == reference_cut(cell, A, h), (A, h)
        cuts.append(got)
        return got
    monkeypatch.setattr(enumeration, "_cut", checked)
    return cuts


class TestCut:
    def test_square_cut_by_a_diagonal(self):
        """|x|, |y| <= 1 cut to |x + y| <= 3/2: the corners (1, 1) and (-1, -1)
        go, each of their two edges gives a vertex tight on its side and the
        diagonal, and the corners (1, -1), (-1, 1) keep their two normals."""
        e1, e2, m1, m2 = (1, 0), (0, 1), (-1, 0), (0, -1)
        square = [((1, 1), 1, frozenset({e1, e2})), ((1, -1), 1, frozenset({e1, m2})),
                  ((-1, 1), 1, frozenset({m1, e2})), ((-1, -1), 1, frozenset({m1, m2}))]
        got = enumeration._cut(square, (1, 1), 3)
        assert len(got) == 6 and set(got) == {
            ((1, -1), 1, frozenset({e1, m2})), ((-1, 1), 1, frozenset({m1, e2})),
            ((2, 1), 2, frozenset({e1, (1, 1)})), ((1, 2), 2, frozenset({e2, (1, 1)})),
            ((-2, -1), 2, frozenset({m1, (-1, -1)})), ((-1, -2), 2, frozenset({m2, (-1, -1)}))}
        assert got == reference_cut(square, (1, 1), 3)

    def test_seeded_cells_cut_as_the_scan_does(self, checked_cuts):
        """Ranks 1 to 4, on both sides of each lattice."""
        ranks = set()
        for L in seeded_lattices(3303, 12, n_max=4, entry_bound=3):
            for K in (L, dual(L)):
                enumeration._voronoi_vertex_data(K, DEFAULT_NODE_BUDGET)
                ranks.add(K.rank)
        assert ranks == {1, 2, 3, 4} and len(checked_cuts) > 100

    @pytest.mark.parametrize("name, rows, count", [
        ("Z5", [[int(i == j) for j in range(5)] for i in range(5)], 32),
        ("D5", [[1, -1, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 1, -1],
                [0, 0, 0, 1, 1]], 42),
        ("A5", [[int(j == i) - int(j == i + 1) for j in range(6)] for i in range(5)], 62),
        ("random_lattice(7, 5, 5)", None, 720),
    ])
    def test_rank_five_cells_cut_as_the_scan_does(self, name, rows, count, checked_cuts,
                                                  monkeypatch):
        """With the cap raised to 5; every vertex is tight on normals of rank 5."""
        monkeypatch.setattr(enumeration, "MINKOWSKI_MAX_RANK", 5)
        L = random_lattice(7, 5, 5) if rows is None else Lattice(linalg.as_mat(rows))
        pairs = enumeration._voronoi_vertex_data(L, DEFAULT_NODE_BUDGET)[0]
        assert len(pairs) == len(checked_cuts[-1]) == count
        assert all(len(linalg._eliminate(list(tight), 5)[0]) == 5
                   for *_, tight in checked_cuts[-1])

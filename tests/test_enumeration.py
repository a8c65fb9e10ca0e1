from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import assume, given, strategies as st

from latstab import (
    BudgetExceeded,
    CertificationFailed,
    Lattice,
    NotInSpan,
    RankTooLarge,
    SingularMatrix,
    closest_vector,
    covering_radius,
    dual,
    enumeration,
    linalg,
    list_vectors,
    shortest_vector,
    successive_minima,
)
from latstab.enumeration import ShortVectorList, _Budget, _prep, _se_scan
from latstab.generate import random_lattice
from conftest import seeded_lattices
from oracles import (babai_rounding_sq, box_closest, box_minima, box_vectors,
                     reference_closest_vector, reference_se_scan, reference_voronoi_vertex_data)


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

    def test_matches_box_oracle_on_random_lattices(self):
        for L in seeded_lattices(101, 12, n_max=3, entry_bound=3):
            radius = 2 * max(linalg.norm_sq(r) for r in L.basis)
            assert list_vectors(L, radius).vectors == tuple(box_vectors(L, radius))


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

    def test_projection_off_the_span_rejected(self, monkeypatch):
        L = Lattice(((F(1), F(0)),))
        monkeypatch.setattr(linalg, "project_onto_rowspace", lambda B, x: x)
        with pytest.raises(CertificationFailed):
            closest_vector(L, (F(1, 4), 1), project=True)

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
    """Every leaf (coords, dsq) in visit order, the budget left and whether
    the budget ran out; with shrink, the bound follows the best leaf as in
    closest_vector."""
    bound, leaves = [radius_sq], []

    def on_leaf(c, dsq):
        leaves.append((c, dsq))
        if shrink and dsq < bound[0]:
            bound[0] = dsq

    budget = _Budget(cap, "scan", len(t), radius_sq)
    try:
        scan(prep, t, bound, on_leaf, budget)
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
        plane_sq = sum(linalg.norm_sq(b) for b in linalg.gram_schmidt(prep.rows)[0]) / 4
        with pytest.raises(BudgetExceeded) as err:
            closest_vector(L, linalg.vec_mat(t, prep.rows), node_budget=0)
        assert str(err.value) == (f"closest_vector at rank {L.rank}, radius^2 {plane_sq} "
                                  f"exceeded node budget 0")

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
        verts, mu_sq, _ = enumeration._voronoi_vertex_data(z2, 10_000)
        monkeypatch.setattr(enumeration, "_voronoi_vertex_data",
                            lambda L, budget: (verts, mu_sq, (F(1, 2), F(1, 4))))
        with pytest.raises(CertificationFailed):
            covering_radius(z2)

    def test_cell_without_vertices_rejected(self, z2, monkeypatch):
        def singular(M, R):
            raise SingularMatrix("every facet system")
        monkeypatch.setattr(enumeration.linalg, "solve_matrix", singular)
        with pytest.raises(CertificationFailed):
            covering_radius(z2)

    def test_cell_cached_per_lattice_and_immutable(self, z2):
        first = enumeration._voronoi_vertex_data(z2, 10_000)
        assert isinstance(first[0], tuple)
        assert enumeration._voronoi_vertex_data(z2, 10_000) is first

    def test_cell_over_budget_is_not_kept(self, z2):
        with pytest.raises(BudgetExceeded):
            enumeration._voronoi_vertex_data(z2, 1)
        first = enumeration._voronoi_vertex_data(z2, 10_000)
        # a kept cell is returned whatever budget a later call passes
        assert enumeration._voronoi_vertex_data(z2, 1) is first

    @pytest.mark.parametrize("rows, pairs, count, mu_sq", [
        (((1, 0), (0, 1)), 2, 4, F(1, 2)),
        (((1, 0), (0, 2)), 2, 4, F(5, 4)),  # 2L has the unique shortest class vector (2, 0)
        (((1, 0), (F(1, 2), F(3, 4))), 3, 6, F(169, 576)),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3, 8, F(3, 4)),
        (((1, 1, 0), (1, 0, 1), (0, 1, 1)), 6, 14, F(1)),  # fcc
        (((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 2), F(1, 2))), 7, 24, F(5, 16)),  # bcc
    ])
    def test_classical_cells(self, rows, pairs, count, mu_sq, monkeypatch):
        """Vertex count and radius, and one solve per rank-many subset of
        the relevant pairs: counting a class modulo 2L with tied minima, or
        2L itself, would add facets and solves."""
        solves = []
        solve_matrix = linalg.solve_matrix
        monkeypatch.setattr(linalg, "solve_matrix",
                            lambda M, R: solves.append(M) or solve_matrix(M, R))
        L = Lattice(linalg.as_mat(rows))
        verts, got_sq, witness = enumeration._voronoi_vertex_data(L, 10_000)
        assert (len(verts), got_sq, linalg.norm_sq(witness)) == (count, mu_sq, mu_sq)
        assert len(solves) == comb(pairs, L.rank)

    def test_cell_matches_search_reference(self):
        """Coset-minimum relevance and facet-subset solves give the cell the
        per-candidate nearest-point searches give: same vertices in the same
        order, the same radius and the same deepest hole."""
        for L in seeded_lattices(707, 20, n_max=3, entry_bound=3):
            for K in (L, dual(L)):
                got = enumeration._voronoi_vertex_data(K, 100_000)
                assert got == reference_voronoi_vertex_data(K)

    def test_exact_capped_at_rank_three(self):
        rows = tuple(tuple(F(1 if i == j else 0) for j in range(4)) for i in range(4))
        with pytest.raises(RankTooLarge):
            covering_radius(Lattice(rows))

    def test_heuristic_brackets_exact(self, mixed2):
        got = covering_radius(mixed2, "heuristic", seed=3)
        assert not got.exact
        assert got.lower_sq <= F(17, 16) <= got.upper_sq

    def test_heuristic_finds_cube_hole(self):
        rows = tuple(tuple(F(1 if i == j else 0) for j in range(4)) for i in range(4))
        got = covering_radius(Lattice(rows), "heuristic")
        assert got.lower_sq == got.upper_sq == F(1)

    def test_mode_validated(self, z2):
        with pytest.raises(ValueError):
            covering_radius(z2, "fast")

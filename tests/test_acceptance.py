"""Acceptance gate: nine end-to-end checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s`: each criterion emits one
explicit pass line, and a failed assertion surfaces as the corresponding
FAILED line instead. Wall-clock guards keep the suite honest about the
performance envelope.
"""

import time
from fractions import Fraction as F

from latstab import (
    Lattice,
    check_hypothesis,
    closest_vector,
    degenerate_family,
    double_dual_check,
    dual,
    equal_lattices,
    linalg,
    list_vectors,
    minkowski_reduce,
    near_dual_vector,
    probe_worst_distance,
    residual_amplification,
    round_in_dual_coordinates,
    sharpness_witness,
    stability_radius,
    successive_minima,
    transference_check,
    almost_near_linear,
)
from latstab.rng import SplitMix64
from conftest import seeded_lattices
from oracles import box_closest, box_vectors


def _pass(n: int, label: str) -> None:
    print(f"ACCEPTANCE criterion {n} PASS: {label}", flush=True)


def _unit(n: int) -> Lattice:
    return Lattice(tuple(tuple(F(1 if i == j else 0) for j in range(n)) for i in range(n)))


def test_criterion_1_dual_involution_and_biorthogonality():
    t0 = time.monotonic()
    for L in seeded_lattices(1001, 200, n_max=4, entry_bound=5):
        W = dual(L)
        assert W.ambient_dim == L.ambient_dim and W.rank == L.rank
        for i, v in enumerate(L.basis):
            for j, w in enumerate(W.basis):
                assert linalg.dot(v, w) == (1 if i == j else 0)
        assert dual(W).basis == L.basis
        assert double_dual_check(L)
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"200 dual round-trips took {elapsed:.1f}s"
    _pass(1, f"200 lattices, exact dual involution and biorthogonality ({elapsed:.1f}s)")


def test_criterion_2_transference_inequalities_hold():
    t0 = time.monotonic()
    for L in seeded_lattices(2002, 100, n_max=3, entry_bound=3):
        rep = transference_check(L)
        assert rep.mu_dual.exact
        assert rep.all_satisfied, f"bound failed on {L.basis}"
        assert not rep.any_violation
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"100 transference checks took {elapsed:.1f}s"
    _pass(2, f"100 lattices, all minima/covering bounds exact and satisfied ({elapsed:.1f}s)")


def test_criterion_3_enumeration_matches_naive_oracle():
    t0 = time.monotonic()
    rng = SplitMix64(3003)
    for L in seeded_lattices(3003, 50, n_max=3, entry_bound=3):
        radius = 2 * max(linalg.norm_sq(r) for r in L.basis)
        assert list_vectors(L, radius).vectors == tuple(box_vectors(L, radius))
        t = tuple(rng.fraction(64) - F(1, 2) for _ in range(L.rank))
        x = linalg.vec_mat(t, L.basis)
        best, ties = box_closest(L, x)
        near = closest_vector(L, x)
        assert near.dist_sq == best
        assert near.coords in ties
    elapsed = time.monotonic() - t0
    _pass(3, f"50 lattices, listing and nearest-point agree with box scans ({elapsed:.1f}s)")


def test_criterion_4_minkowski_norms_sandwiched_by_minima():
    t0 = time.monotonic()
    for L in seeded_lattices(4004, 50, n_max=3, entry_bound=6):
        red = minkowski_reduce(L)
        mins = successive_minima(L).minima_sq
        assert equal_lattices(Lattice(red.basis), L)
        assert red.norms_sq[0] == mins[0]
        for k, (norm_sq, lam_sq) in enumerate(zip(red.norms_sq, mins), start=1):
            assert lam_sq <= norm_sq <= 4**k * lam_sq
    elapsed = time.monotonic() - t0
    _pass(4, f"50 lattices, reduced norms within [lambda_k^2, 4^k lambda_k^2] ({elapsed:.1f}s)")


def test_criterion_5_rounding_bound_and_cvp_dominance():
    t0 = time.monotonic()
    rng = SplitMix64(5005)
    deltas = (F(1, 10), F(1, 5), F(3, 10))
    lattices = seeded_lattices(5005, 100, n_max=3, entry_bound=4)
    for idx, L in enumerate(lattices):
        delta = deltas[idx % 3]
        W = dual(L).basis
        t = tuple(rng.int_between(-3, 3) + delta * (2 * rng.fraction(32) - 1)
                  for _ in range(L.rank))
        x = linalg.vec_mat(linalg.as_vec(t), W)
        rounded = round_in_dual_coordinates(L, x)
        bound = L.rank * delta**2 * sum(linalg.norm_sq(w) for w in W)
        assert rounded.dist_sq <= bound
        assert near_dual_vector(L, x).dist_sq <= rounded.dist_sq
    elapsed = time.monotonic() - t0
    _pass(5, f"100 near-integral points, rounding bound and exact-CVP dominance ({elapsed:.1f}s)")


def test_criterion_6_threshold_witness_on_unit_lattices():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        wit = sharpness_witness(_unit(n), verify_radius_sq=F(100))
        assert wit.report.holds
        assert wit.report.delta == F(1, 3)
        assert wit.near.dist_sq == F(1, 9)
    elapsed = time.monotonic() - t0
    _pass(6, f"witness at delta=1/3 stays 1/3 away in dimensions 1-3 ({elapsed:.1f}s)")


def test_criterion_7_probe_finds_known_worst_cases():
    t0 = time.monotonic()
    z1, z2 = _unit(1), _unit(2)
    mixed = Lattice(((F(2), F(0)), (F(0), F(1, 2))))
    for L, delta, r2, expected in (
        (z1, F(1, 4), F(1), F(1, 16)),
        (z1, F(1, 4), F(4), F(1, 64)),
        (z2, F(1, 4), F(1), F(1, 8)),
        (z2, F(1, 4), F(2), F(1, 16)),
        (mixed, F(1, 4), F(1, 4), F(5, 16)),
    ):
        f_hat, witness = probe_worst_distance(L, delta, r2, restarts=8)
        assert f_hat == expected, f"probe({delta}, {r2}) on {L.basis}: {f_hat}"
        assert check_hypothesis(L, witness, delta, r2).holds
        assert near_dual_vector(L, witness).dist_sq == f_hat
    probe = stability_radius(z2, F(1, 4), F(1, 100), restarts=8)
    assert all(a >= b for a, b in zip(probe.f_hat_sq, probe.f_hat_sq[1:]))
    assert probe.estimated_r_sq == 9
    elapsed = time.monotonic() - t0
    _pass(7, f"probe reproduces hand-computed worst cases, curve monotone ({elapsed:.1f}s)")


def test_criterion_8_exact_linear_solutions_are_nearest():
    t0 = time.monotonic()
    rng = SplitMix64(8008)
    solved = 0
    while solved < 100:
        n = rng.int_between(2, 4)
        m = rng.int_between(1, n)
        A = tuple(tuple(F(rng.int_between(-5, 5)) for _ in range(n)) for _ in range(m))
        if linalg.rank(A) != m:
            continue
        b = tuple(F(rng.int_between(-5, 5)) for _ in range(m))
        x = tuple(F(rng.int_between(-20, 20), 7) for _ in range(n))
        y = almost_near_linear(A, b, x)
        assert linalg.mat_vec(A, y) == b
        kernel = linalg.null_space(A)
        if not kernel:
            assert y == linalg.solve(A, linalg.as_vec(b))
        for _ in range(20):
            coeffs = tuple(F(rng.int_between(-8, 8), 3) for _ in kernel)
            z = y
            for c, k in zip(coeffs, kernel):
                z = linalg.vadd(z, linalg.vscale(c, k))
            assert linalg.mat_vec(A, z) == b
            assert linalg.norm_sq(linalg.vsub(x, z)) >= linalg.norm_sq(linalg.vsub(x, y))
        if m == 1:
            a = A[0]
            scale = (linalg.dot(a, x) - b[0]) / linalg.norm_sq(a)
            assert y == linalg.vsub(x, linalg.vscale(scale, a))
        residual_amplification(A, b, x)
        solved += 1
    elapsed = time.monotonic() - t0
    _pass(8, f"100 systems, exact nearest solutions beat {20} alternatives each ({elapsed:.1f}s)")


def test_criterion_9_stability_radius_bounded_and_witnessed():
    t0 = time.monotonic()
    delta, eps_sq = F(1, 4), F(1, 100)
    targets = [d.probe for d in degenerate_family(1, [1, 10, 100], restarts=6)]
    targets.append(stability_radius(_unit(2), delta, eps_sq, restarts=6))
    members = [Lattice(((F(1), F(0)), (F(0), F(d)))) for d in (1, 10, 100)] + [_unit(2)]
    for probe, L in zip(targets, members):
        red = minkowski_reduce(L)
        Wred = linalg.mat_mul(linalg.invert(linalg.gram(red.basis)), red.basis)
        expected_bound = delta**2 * L.rank * sum(linalg.norm_sq(w) for w in Wred)
        assert probe.base_bound_sq == expected_bound
        assert probe.base_radius_sq == max(red.norms_sq)
        assert probe.estimated_r_sq <= probe.sufficient_radius_sq
        assert probe.sufficient_bound_sq <= eps_sq
        assert probe.f_hat_sq[-1] <= eps_sq
        assert all(a >= b for a, b in zip(probe.f_hat_sq, probe.f_hat_sq[1:]))
        for r2, f_hat, w in zip(probe.radius_grid, probe.f_hat_sq, probe.witnesses):
            assert check_hypothesis(L, w, delta, r2).holds
            assert near_dual_vector(L, w).dist_sq == f_hat
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"family probes took {elapsed:.1f}s"
    _pass(9, f"stability radius certified below the analytic level on the family ({elapsed:.1f}s)")

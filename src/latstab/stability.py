"""Almost-near stability for dual lattices.

The driving question: if x has almost-integer inner products with every
lattice vector up to some radius, how close must x be to the dual lattice?
This module provides the exact hypothesis checker, the two constructions
that produce nearby dual vectors (coordinate rounding and exact CVP), the
linear-system analogue, transference inequalities between minima of a
lattice and its dual, the tightness construction at threshold 1/3, and a
seeded heuristic probe that estimates the worst-case distance as a function
of the constraint radius. Probe outputs are lower bounds on the true worst
case: every reported witness is exactly feasible, while analytic upper
bounds accompany the reports.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, sqrt
from operator import mul

from . import linalg
from .enumeration import (
    DEFAULT_NODE_BUDGET,
    CoveringRadiusBounds,
    NearResult,
    _voronoi_vertex_data,
    closest_vector,
    covering_radius,
    list_vectors,
    shortest_vector,
    successive_minima,
)
from .errors import (CertificationFailed, DependentRows, DimensionMismatch, NotInSpan,
                     RankTooLarge, SingularMatrix)
from .lattice import Lattice, dist_to_integers, dual, dual_coordinates
from .linalg import Mat, Vec, as_mat, as_vec
from .reduction import lll, minkowski_reduce
from .rng import SplitMix64

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
POWER_ITERS = 24  # power-iteration steps of the display-only sigma_min estimate


@dataclass(frozen=True)
class ProbeConfig:
    seed: int = 0
    restarts: int = 32
    max_iters: int = 200
    node_budget: int = DEFAULT_NODE_BUDGET


@dataclass(frozen=True)
class Violation:
    coords: tuple[int, ...]
    inner_product: Fraction
    dist_to_int: Fraction


@dataclass(frozen=True)
class HypothesisReport:
    delta: Fraction
    radius_sq: Fraction
    holds: bool
    checked_count: int
    violations: tuple[Violation, ...]


def check_hypothesis(L: Lattice, x, delta, radius_sq,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> HypothesisReport:
    """Does every lattice vector u with norm_sq <= radius_sq have u.x within
    delta of an integer? Exhaustive and exact; one representative per +-pair
    (the distance is sign-invariant)."""
    x = as_vec(x)
    delta = linalg.as_rational(delta)
    radius_sq = linalg.as_rational(radius_sq)
    if not 0 <= delta < HALF:
        raise ValueError(f"delta must be in [0, 1/2), got {delta}")
    if linalg.rowspace_coefficients(L.basis, x) is None:
        raise NotInSpan("x must lie in span(L)")
    violations = []
    reps = list_vectors(L, radius_sq, node_budget=node_budget).vectors
    for coords, _ in reps:
        u = linalg.vec_mat(as_vec(coords), L.basis)
        s = linalg.dot(u, x)
        d = dist_to_integers(s)
        if d > delta:
            violations.append(Violation(coords=coords, inner_product=s, dist_to_int=d))
    return HypothesisReport(delta=delta, radius_sq=radius_sq, holds=not violations,
                            checked_count=len(reps), violations=tuple(violations))


def round_in_dual_coordinates(L: Lattice, x) -> NearResult:
    """Nearby dual vector by rounding the dual coordinates of x (half to even).

    If every basis row v_i has v_i.x within delta of an integer, the result y
    satisfies ||x - y||^2 <= m * delta^2 * sum ||w_i||^2 over the dual rows.
    """
    t = dual_coordinates(L, x)
    g = tuple(round(a) for a in t)
    W = dual(L).basis
    y = linalg.vec_mat(as_vec(g), W)
    return NearResult(point=y, coords=g, dist_sq=linalg.norm_sq(linalg.vsub(as_vec(x), y)))


def near_dual_vector(L: Lattice, x, node_budget: int = DEFAULT_NODE_BUDGET) -> NearResult:
    """The exactly nearest dual vector; never worse than coordinate rounding."""
    return closest_vector(dual(L), x, node_budget=node_budget)


def _nearest_solution(A: Mat, b: Vec, x: Vec, with_inverse: bool = False) -> tuple[Vec, Vec, Mat]:
    """almost_near_linear's y, the residual r = A x - b and, when asked,
    (A A^T)^-1 (else ()), all from one elimination of the Gram matrix A A^T."""
    if not A or len(b) != len(A) or len(x) != len(A[0]):
        raise DimensionMismatch(f"A has shape {len(A)}x{len(A[0]) if A else 0}, "
                                f"b has {len(b)} entries and x has {len(x)}")
    r = linalg.vsub(linalg.mat_vec(A, x), b)
    G = linalg.gram(A)
    Ginv: Mat = ()
    try:
        if with_inverse:
            Ginv = linalg.invert(G)
            s = linalg.mat_vec(Ginv, r)
        else:
            s = linalg.solve(G, r)
    except SingularMatrix:
        raise DependentRows("the system matrix must have independent rows") from None
    y = linalg.vsub(x, linalg.vec_mat(s, A))
    if linalg.mat_vec(A, y) != b:
        raise CertificationFailed("the corrected point does not solve A y = b")
    return y, r, Ginv


def almost_near_linear(A, b, x) -> Vec:
    """Exact solution of A y = b nearest to x (rows of A independent).

    y = x - A^T (A A^T)^-1 (A x - b); the correction is the orthogonal
    projection of the residual back through the row space.
    """
    return _nearest_solution(as_mat(A), as_vec(b), as_vec(x))[0]


@dataclass(frozen=True)
class ResidualReport:
    y: Vec                        # the exact solution of A y = b nearest to x
    residual_norm_sq: Fraction
    correction_norm_sq: Fraction
    sigma_min_sq_lower: Fraction  # exact certified lower bound on the least eigenvalue of AA^T
    sigma_min_lower: float        # its square root (display only)
    sigma_min_estimate: float     # power-iteration estimate, approximate


def residual_amplification(A, b, x, seed: int = 0) -> ResidualReport:
    """How much the correction ||x - y|| can exceed the residual ||Ax - b||.

    The correction lies in the row space, where ||Av|| >= sigma_min ||v||, so
    correction^2 * sigma_min^2 <= residual^2. Both the identity
    ||A(x - y)||^2 == residual^2 and that inequality (with the certified
    rational bound sigma_min^2 >= 1/trace((AA^T)^-1)) are checked exactly and
    raise CertificationFailed when they fail.
    """
    A = as_mat(A)
    x = as_vec(x)
    y, r, Ginv = _nearest_solution(A, as_vec(b), x, with_inverse=True)
    residual_sq = linalg.norm_sq(r)
    corr = linalg.vsub(x, y)
    correction_sq = linalg.norm_sq(corr)
    if linalg.mat_vec(A, corr) != r:
        raise CertificationFailed("A (x - y) differs from the residual A x - b")
    trace_inv = sum((Ginv[i][i] for i in range(len(A))), Fraction(0))
    sigma_min_sq_lower = 1 / trace_inv
    if correction_sq * sigma_min_sq_lower > residual_sq:
        raise CertificationFailed("correction^2 * sigma_min^2 lower bound exceeds residual^2")
    rng = SplitMix64(seed)
    v = as_vec([rng.int_between(1, 16) for _ in range(len(A))])
    for _ in range(POWER_ITERS):
        v = linalg.mat_vec(Ginv, v)
        scale = max(abs(e) for e in v)
        v = tuple(e / scale for e in v)
    rayleigh = linalg.dot(v, linalg.mat_vec(Ginv, v)) / linalg.dot(v, v)
    return ResidualReport(
        y=y,
        residual_norm_sq=residual_sq,
        correction_norm_sq=correction_sq,
        sigma_min_sq_lower=sigma_min_sq_lower,
        sigma_min_lower=sqrt(float(sigma_min_sq_lower)),
        sigma_min_estimate=sqrt(1.0 / float(rayleigh)),
    )


@dataclass(frozen=True)
class PairCheck:
    k: int
    product_sq: Fraction          # lambda_k(L)^2 * lambda_{m-k+1}(dual)^2
    rank_bound_sq: Fraction       # m^2
    within_rank_bound: bool
    factorial_bound_sq: Fraction  # (m!)^2
    within_factorial_bound: bool


@dataclass(frozen=True)
class IntervalCheck:
    lhs_lower_sq: Fraction
    lhs_upper_sq: Fraction
    bound_sq: Fraction
    verdict: str  # "satisfied" | "violated" | "indeterminate"


def _interval(lo: Fraction, hi: Fraction, bound: Fraction) -> IntervalCheck:
    verdict = "satisfied" if hi <= bound else ("violated" if lo > bound else "indeterminate")
    return IntervalCheck(lhs_lower_sq=lo, lhs_upper_sq=hi, bound_sq=bound, verdict=verdict)


@dataclass(frozen=True)
class TransferenceReport:
    rank: int
    minima_sq: tuple[Fraction, ...]
    dual_minima_sq: tuple[Fraction, ...]
    mu_dual: CoveringRadiusBounds
    per_k: tuple[PairCheck, ...]
    covering_pair: IntervalCheck            # lambda_1(L)^2 mu(dual)^2 <= m^3/4
    covering_pair_factorial: IntervalCheck  # lambda_1(L)^2 mu(dual)^2 <= (m m!/2)^2
    dual_basis_bound: IntervalCheck         # mu(dual)^2 <= (m/2)^2 lambda_m(dual)^2

    @property
    def any_violation(self) -> bool:
        if any(not (c.within_rank_bound and c.within_factorial_bound) for c in self.per_k):
            return True
        return any(c.verdict == "violated" for c in
                   (self.covering_pair, self.covering_pair_factorial, self.dual_basis_bound))

    @property
    def all_satisfied(self) -> bool:
        if any(not (c.within_rank_bound and c.within_factorial_bound) for c in self.per_k):
            return False
        return all(c.verdict == "satisfied" for c in
                   (self.covering_pair, self.covering_pair_factorial, self.dual_basis_bound))


def transference_check(L: Lattice, node_budget: int = DEFAULT_NODE_BUDGET,
                       seed: int = 0) -> TransferenceReport:
    """Evaluate the minima/covering inequalities tying L to its dual.

    Everything is compared in squared form. The covering radius of the dual
    is exact up to rank 3; beyond that it enters as an interval and a check
    whose bound falls inside the interval reports "indeterminate" rather
    than a verdict it cannot certify.
    """
    m = L.rank
    mins = successive_minima(L, node_budget=node_budget).minima_sq
    dmins = successive_minima(dual(L), node_budget=node_budget).minima_sq
    mode = "exact" if m <= 3 else "heuristic"
    mu = covering_radius(dual(L), mode, seed=seed, node_budget=node_budget)
    rank_bound = Fraction(m * m)
    fact_bound = Fraction(factorial(m)) ** 2
    per_k = tuple(
        PairCheck(
            k=k,
            product_sq=mins[k - 1] * dmins[m - k],
            rank_bound_sq=rank_bound,
            within_rank_bound=mins[k - 1] * dmins[m - k] <= rank_bound,
            factorial_bound_sq=fact_bound,
            within_factorial_bound=mins[k - 1] * dmins[m - k] <= fact_bound,
        )
        for k in range(1, m + 1)
    )
    lam1 = mins[0]
    return TransferenceReport(
        rank=m,
        minima_sq=mins,
        dual_minima_sq=dmins,
        mu_dual=mu,
        per_k=per_k,
        covering_pair=_interval(lam1 * mu.lower_sq, lam1 * mu.upper_sq, Fraction(m**3, 4)),
        covering_pair_factorial=_interval(lam1 * mu.lower_sq, lam1 * mu.upper_sq,
                                          Fraction(m * factorial(m)) ** 2 / 4),
        dual_basis_bound=_interval(mu.lower_sq, mu.upper_sq, Fraction(m * m, 4) * dmins[-1]),
    )


@dataclass(frozen=True)
class SharpnessWitness:
    x: Vec
    report: HypothesisReport
    near: NearResult


def sharpness_witness(L: Lattice, verify_radius_sq=Fraction(100),
                      node_budget: int = DEFAULT_NODE_BUDGET) -> SharpnessWitness:
    """The construction showing the threshold 1/3 cannot be improved.

    With w a shortest dual vector, x = w/3 keeps every u.x within 1/3 of an
    integer (u.w is an integer, so u.x is a multiple of 1/3) at EVERY radius,
    yet stays ||w||/3 away from the dual. The hypothesis is re-verified by
    enumeration up to verify_radius_sq; the distance is exact CVP.
    """
    Ld = dual(L)
    coords, _ = shortest_vector(Ld, node_budget=node_budget)
    w = linalg.vec_mat(as_vec(coords), Ld.basis)
    x = linalg.vscale(THIRD, w)
    report = check_hypothesis(L, x, THIRD, verify_radius_sq, node_budget=node_budget)
    near = closest_vector(Ld, x, node_budget=node_budget)
    return SharpnessWitness(x=x, report=report, near=near)


def _slab_step(R: list[list[int]], T: list[int], D: int, dd: int, x: Vec) -> Vec:
    """almost_near_linear(R / D, T / dd, x) for independent integer rows R,
    in integers: with x = xz / q, H = R R^T and rho = R xz dd - T D q,
    y = (xz dd det H - R^T sigma) / (q dd det H) for sigma = det H * H^-1 rho,
    the last column of [H | rho] after the shared fraction-free elimination."""
    xz, q = linalg._scaled(x)
    M = [[sum(map(mul, a, b)) for b in R] + [sum(map(mul, a, xz)) * dd - t * D * q]
         for a, t in zip(R, T)]
    pivots, det = linalg._eliminate(M, len(R))
    if len(pivots) < len(R):
        raise DependentRows("the system matrix must have independent rows")
    sigma = [row[-1] for row in M]
    ynum = [a * dd * det - sum(map(mul, sigma, col)) for a, col in zip(xz, zip(*R))]
    if any(sum(map(mul, r, ynum)) != t * D * q * det for r, t in zip(R, T)):
        raise CertificationFailed("the corrected point does not solve A y = b")
    return tuple(Fraction(a, q * dd * det) for a in ynum)


class _Slabs:
    """A probe's constraint vectors scaled once to integer rows over one
    common denominator D, so that u.x = N_u / Q with integers N_u and
    Q = D * lcm(denominators of x): slab tests compare integers."""

    def __init__(self, U: list[Vec], delta: Fraction):
        self.D = lcm(*(a.denominator for u in U for a in u))
        self.rows = [[a.numerator * (self.D // a.denominator) for a in u] for u in U]
        self.dn, self.dd = delta.numerator, delta.denominator

    def products(self, x: Vec) -> tuple[list[int], int]:
        xz, q = linalg._scaled(x)
        return [sum(map(mul, u, xz)) for u in self.rows], self.D * q

    def violated(self, Ns: list[int], Q: int) -> list[int]:
        """Indices of the constraints whose N/Q lies farther than delta
        from every integer: (N/Q + delta) mod 1 > 2 delta, as delta < 1/2."""
        dd, shift, period, bound = self.dd, self.dn * Q, self.dd * Q, 2 * self.dn * Q
        return [i for i, N in enumerate(Ns) if (N * dd + shift) % period > bound]


def probe_worst_distance(L: Lattice, delta, radius_sq, cfg: ProbeConfig | None = None,
                         *, extra_starts: tuple[Vec, ...] = (),
                         _constraints: list[Vec] | None = None) -> tuple[Fraction, Vec]:
    """Heuristic maximum of dist(x, dual)^2 over the feasible slab region
    {x in span(L) : every u in L with ||u||^2 <= radius_sq has |u.x|
    within delta of an integer}.

    Multistart local ascent: each start is branched to the nearest integer
    per constraint, repaired onto the slab faces by exact least squares,
    then pushed away from its nearest dual point until a slab face blocks.
    The returned witness is exactly feasible, so the value is a certified
    lower bound for the true worst case. The origin is always a feasible
    start, hence the probe never fails.
    """
    cfg = cfg or ProbeConfig()
    delta = linalg.as_rational(delta)
    radius_sq = linalg.as_rational(radius_sq)
    if not 0 <= delta < THIRD:
        raise ValueError(f"delta must be in [0, 1/3), got {delta}")
    Ld = dual(L)
    W = Ld.basis
    m, n = L.rank, L.ambient_dim
    if _constraints is None:
        reps = list_vectors(L, radius_sq, node_budget=cfg.node_budget).vectors
        U = [linalg.vec_mat(as_vec(c), L.basis) for c, _ in reps]
    else:
        U = _constraints

    slabs = _Slabs(U, delta)
    dn, dd = slabs.dn, slabs.dd

    def repair(x: Vec) -> tuple[Vec, tuple[list[int], int]] | None:
        """A feasible point near x with its slab products, or None."""
        for _ in range(4):
            Ns, Q = slabs.products(x)
            bad = slabs.violated(Ns, Q)
            if not bad:
                return x, (Ns, Q)
            rows: list[list[int]] = []
            targets: list[int] = []  # u_i.y = targets[i] / dd on the nearest slab face
            echelon: list[tuple[int, list[int]]] = []  # (pivot, row) of the chosen rows
            for i in bad:
                if len(rows) == n:
                    break
                v = slabs.rows[i]
                for j, e in echelon:
                    if v[j]:
                        v = [e[j] * a - v[j] * b for a, b in zip(v, e)]
                pivot = next((j for j, a in enumerate(v) if a), None)
                if pivot is not None:
                    echelon.append((pivot, v))
                    rows.append(slabs.rows[i])
                    k = linalg._round_half_even(Ns[i], Q)
                    targets.append(k * dd - dn if Ns[i] < k * Q else k * dd + dn)
            if not rows:
                return None
            x = _slab_step(rows, targets, slabs.D, dd, x)
        Ns, Q = slabs.products(x)
        return None if slabs.violated(Ns, Q) else (x, (Ns, Q))

    def push(x: Vec, prods: tuple[list[int], int], d: Vec) -> list[Vec]:
        """Candidate points farther from the current nearest dual vector,
        staying inside the current branch slabs; prods = slabs.products(x)."""
        # with u.x = N/Q and u.d = A/Qd, the step to the face k +- delta is
        # ((k dd +- dn) Q - N dd) / A times the common positive Qd / (dd Q)
        Ns, Q = prods
        As, Qd = slabs.products(d)
        num = den = 0
        for N, A in zip(Ns, As):
            if A == 0:
                continue
            k = linalg._round_half_even(N, Q)
            if A > 0:
                a, b = (k * dd + dn) * Q - N * dd, A
            else:
                a, b = N * dd - (k * dd - dn) * Q, -A
            if not den or a * den < num * b:
                num, den = a, b
        if not den:
            return [linalg.vadd(x, linalg.vscale(Fraction(2) ** j, d)) for j in range(6)]
        if num <= 0:
            return []
        limit = Fraction(num * Qd, den * dd * Q)
        return [linalg.vadd(x, linalg.vscale(limit, d)),
                linalg.vadd(x, linalg.vscale(limit / 2, d))]

    def local_max(x0: Vec) -> tuple[Fraction, Vec] | None:
        got = repair(x0)
        if got is None:
            return None
        x, prods = got
        best: tuple[Fraction, Vec] | None = None
        for _ in range(cfg.max_iters):
            near = closest_vector(Ld, x, node_budget=cfg.node_budget)
            f = near.dist_sq
            if best is not None and f <= best[0]:
                break
            best = (f, x)
            d = linalg.vsub(x, near.point)
            if not any(d):
                break
            stepped = None
            for cand in push(x, prods or slabs.products(x), d):
                fc = closest_vector(Ld, cand, node_budget=cfg.node_budget).dist_sq
                if fc > f and (stepped is None or fc > stepped[0]):
                    stepped = (fc, cand)
            if stepped is None:
                break
            x, prods = stepped[1], None
        return best

    starts: list[Vec] = [linalg.zeros(n)]
    if m <= 3:
        starts += _voronoi_vertex_data(Ld, cfg.node_budget)[0]
    if m <= 4:
        masks = range(1, 2**m)
    else:
        masks = [1 << i for i in range(m)] + [2**m - 1]
    for mask in masks:
        sel = as_vec([HALF if mask >> i & 1 else 0 for i in range(m)])
        starts.append(linalg.vec_mat(sel, W))
    starts += [as_vec(s) for s in extra_starts]
    rng = SplitMix64(cfg.seed)
    for _ in range(cfg.restarts):
        t = as_vec([rng.fraction() for _ in range(m)])
        starts.append(linalg.vec_mat(t, W))

    best: tuple[Fraction, Vec] = (Fraction(0), linalg.zeros(n))
    for s in starts:
        got = local_max(s)
        if got is None:
            continue
        f, w = got
        if f > best[0] or (f == best[0] and w < best[1]):
            best = (f, w)
    # certified independently of the integer slab tests, in plain Fractions
    if not all(dist_to_integers(linalg.dot(u, best[1])) <= delta for u in U):
        raise CertificationFailed(f"the probe witness violates the hypothesis at "
                                  f"radius^2 {radius_sq}")
    return best


@dataclass(frozen=True)
class StabilityProbe:
    delta: Fraction
    epsilon_sq: Fraction
    radius_grid: tuple[Fraction, ...]
    f_hat_sq: tuple[Fraction, ...]
    witnesses: tuple[Vec, ...]
    estimated_r_sq: Fraction
    seed: int
    restarts: int
    base_radius_sq: Fraction      # max ||v_i||^2 over the reduced basis
    base_bound_sq: Fraction       # delta^2 * m * sum ||w_i||^2 at that radius
    sufficient_radius_sq: Fraction  # scaled level whose bound drops below epsilon^2
    sufficient_bound_sq: Fraction
    scaling_steps: int
    reduction_kind: str           # "minkowski", or "lll" above the rank cap (weaker bound)
    levels_dropped: int           # grid levels below the top one that max_levels left out


def stability_radius(L: Lattice, delta, epsilon_sq, cfg: ProbeConfig | None = None,
                     max_levels: int = 32) -> StabilityProbe:
    """Estimate how large the constraint radius must be before every feasible
    x sits within epsilon of the dual lattice.

    The radius grid consists of norms actually achieved by lattice vectors,
    capped at the analytic sufficient level: with a reduced basis (v_i), dual
    rows (w_i) and K = ceil sqrt(delta^2 m sum||w_i||^2 / epsilon^2), the
    constraints at radius K*max||v_i|| pin every |v_i . x| within delta/K of
    an integer (this pinching needs delta < 1/3), so rounding lands within
    epsilon. The probed curve is therefore guaranteed to dip below epsilon^2
    by the top level, and estimated_r_sq is the least grid radius where it
    does. Reported values are monotone: each level is warm-started from the
    earlier witnesses and a final backward pass propagates any later, still
    feasible witness to the smaller radii where it is feasible too.
    """
    cfg = cfg or ProbeConfig()
    delta = linalg.as_rational(delta)
    epsilon_sq = linalg.as_rational(epsilon_sq)
    if not 0 < delta < THIRD:
        raise ValueError(f"delta must be in (0, 1/3), got {delta}")
    if epsilon_sq <= 0:
        raise ValueError("epsilon_sq must be positive")
    if max_levels < 1:
        raise ValueError(f"max_levels must be at least 1, got {max_levels}")
    try:
        red = minkowski_reduce(L, node_budget=cfg.node_budget)
    except RankTooLarge:
        red = lll(L)
    m = L.rank
    sum_w = sum((linalg.norm_sq(w) for w in dual(red.lattice).basis), Fraction(0))
    base_radius_sq = max(red.norms_sq)
    base_bound_sq = delta * delta * m * sum_w
    K = max(1, linalg.ceil_sqrt(base_bound_sq / epsilon_sq))
    suff_radius_sq = K * K * base_radius_sq
    suff_bound_sq = base_bound_sq / (K * K)

    all_vecs = list_vectors(L, suff_radius_sq, node_budget=cfg.node_budget)
    uvecs = [linalg.vec_mat(as_vec(c), L.basis) for c, _ in all_vecs.vectors]
    norms = [nsq for _, nsq in all_vecs.vectors]
    levels = sorted(set(norms))
    levels_dropped = max(0, len(levels) - max_levels)
    if levels_dropped:
        levels = levels[: max_levels - 1] + [levels[-1]]

    f_hats: list[Fraction] = []
    witnesses: list[Vec] = []
    for r2 in levels:
        f, w = probe_worst_distance(L, delta, r2, cfg,
                                    extra_starts=tuple(witnesses),
                                    _constraints=uvecs[: bisect_right(norms, r2)])
        f_hats.append(f)
        witnesses.append(w)
    for i in range(len(levels) - 2, -1, -1):
        if f_hats[i + 1] > f_hats[i]:
            f_hats[i] = f_hats[i + 1]
            witnesses[i] = witnesses[i + 1]
    estimated = next((r2 for r2, f in zip(levels, f_hats) if f <= epsilon_sq), None)
    if estimated is None:
        raise CertificationFailed(f"the probe exceeds epsilon^2 {epsilon_sq} at the "
                                  f"analytic sufficient radius^2 {levels[-1]}")
    return StabilityProbe(
        delta=delta,
        epsilon_sq=epsilon_sq,
        radius_grid=tuple(levels),
        f_hat_sq=tuple(f_hats),
        witnesses=tuple(witnesses),
        estimated_r_sq=estimated,
        seed=cfg.seed,
        restarts=cfg.restarts,
        base_radius_sq=base_radius_sq,
        base_bound_sq=base_bound_sq,
        sufficient_radius_sq=suff_radius_sq,
        sufficient_bound_sq=suff_bound_sq,
        scaling_steps=K,
        reduction_kind=red.kind,
        levels_dropped=levels_dropped,
    )


@dataclass(frozen=True)
class FamilyDiagnostics:
    scale: Fraction
    lattice: Lattice
    minima_sq: tuple[Fraction, ...]
    dual_minima_sq: tuple[Fraction, ...]
    mu_dual_sq: Fraction
    probe: StabilityProbe


def degenerate_family(c, d_values, delta=Fraction(1, 4), epsilon_sq=Fraction(1, 100),
                      cfg: ProbeConfig | None = None) -> tuple[FamilyDiagnostics, ...]:
    """Diagonal lattices c*Z x d*Z for growing d: the dual direction with
    spacing 1/d collapses, showing how degenerating minima stress the
    stability radius. Reports minima of both sides, the exact dual covering
    radius, and a stability probe per member."""
    c = linalg.as_rational(c)
    out = []
    for d in d_values:
        d = linalg.as_rational(d)
        if c <= 0 or d <= 0:
            raise ValueError("family scales must be positive")
        L = Lattice(as_mat([[c, 0], [0, d]]))
        probe = stability_radius(L, delta, epsilon_sq, cfg)
        out.append(FamilyDiagnostics(
            scale=d,
            lattice=L,
            minima_sq=successive_minima(L).minima_sq,
            dual_minima_sq=successive_minima(dual(L)).minima_sq,
            mu_dual_sq=covering_radius(dual(L), "exact").lower_sq,
            probe=probe,
        ))
    return tuple(out)

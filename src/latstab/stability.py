"""Almost-near stability for dual lattices.

The driving question: if x has almost-integer inner products with every
lattice vector up to some radius, how close must x be to the dual lattice?
This module provides the exact hypothesis checker, the two constructions
that produce nearby dual vectors (coordinate rounding and exact CVP), the
linear-system analogue, transference inequalities between minima of a
lattice and its dual, the tightness construction at threshold 1/3, and a
seeded probe that lower-bounds the worst-case distance per constraint
radius, with exactly feasible witnesses and analytic upper bounds.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from math import factorial
from operator import mul

from . import linalg
from .enumeration import (
    DEFAULT_NODE_BUDGET,
    CoveringRadiusBounds,
    NearResult,
    _closest,
    _deep_holes,
    _prep,
    closest_vector,
    covering_radius,
    list_vectors,
    shortest_vector,
    successive_minima,
)
from .errors import (BudgetExceeded, CertificationFailed, DependentRows, DimensionMismatch,
                     SingularMatrix)
from .lattice import Lattice, dual, dual_coordinates, record
from .linalg import Mat, Vec, _lowest, as_mat, as_vec
from .reduction import MINKOWSKI_MAX_RANK, minkowski_reduce
from .rng import SplitMix64

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
POWER_ITERS = 24  # power-iteration steps of the 1/sigma_min^2 estimate
ASCENT_CAP = 200  # points one probe ascent visits at most; it only guarantees an end


@record
class Violation:
    coords: tuple[int, ...]
    inner_product: Fraction
    dist_to_int: Fraction


@record
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
    delta = linalg.as_rational(delta)
    radius_sq = linalg.as_rational(radius_sq)
    if not 0 <= delta < HALF:
        raise ValueError(f"delta must be in [0, 1/2), got {delta}")
    Bx = dual_coordinates(L, x)  # NotInSpan outside span(L)
    reps = list_vectors(L, radius_sq, node_budget=node_budget).vectors
    violations = _violations([c for c, _ in reps], Bx, delta)
    return HypothesisReport(delta=delta, radius_sq=radius_sq, holds=not violations,
                            checked_count=len(reps), violations=violations)


def _violations(C, Bx: Vec, delta: Fraction) -> tuple[Violation, ...]:
    """The rows c of C whose s = c.Bx, that is u.x for u = c B, lies farther
    than delta = dn/dd from every integer: with Bx = Y/q and N = c.Y, those with
    min(N mod q, -N mod q) dd > dn q. By other arithmetic than the scan's
    _violated, so a certificate decides every row again."""
    Y, q = linalg._scaled(Bx)
    dn, dd = delta.numerator, delta.denominator
    out = []
    for c in C:
        N = sum(map(mul, c, Y))
        r = min(N % q, -N % q)
        if r * dd > dn * q:
            out.append(Violation(coords=c, inner_product=Fraction(N, q),
                                 dist_to_int=Fraction(r, q)))
    return tuple(out)


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


def _linear_system(A, b, x) -> tuple[Mat, Vec, Vec]:
    """A, b and x as Fractions, checked to have matching shapes."""
    A, b, x = as_mat(A), as_vec(b), as_vec(x)
    if not A or len(b) != len(A) or len(x) != len(A[0]):
        raise DimensionMismatch(f"A has shape {len(A)}x{len(A[0]) if A else 0}, "
                                f"b has {len(b)} entries and x has {len(x)}")
    return A, b, x


def almost_near_linear(A, b, x) -> Vec:
    """Exact solution of A y = b nearest to x (rows of A independent).

    y = x - A^T (A A^T)^-1 (A x - b); the correction is the orthogonal
    projection of the residual back through the row space. This is the
    probe's repair step in the identity metric, on A and b scaled to integers.
    """
    A, b, x = _linear_system(A, b, x)
    Az, D = linalg.clear_denominators(A)
    T, dd = linalg._scaled([D * a for a in b])
    identity = [[int(i == j) for j in range(len(x))] for i in range(len(x))]
    Y, p = _slab_step(Az, T, dd, identity, *linalg._scaled(x))
    return tuple(Fraction(a, p) for a in Y)


@record
class ResidualReport:
    y: Vec                        # the exact solution of A y = b nearest to x
    residual_norm_sq: Fraction
    correction_norm_sq: Fraction
    sigma_min_sq_lower: Fraction  # exact certified lower bound on the least eigenvalue of AA^T
    inv_sigma_min_sq_estimate: Fraction  # power iteration's Rayleigh quotient of (AA^T)^-1


def residual_amplification(A, b, x) -> ResidualReport:
    """How much the correction ||x - y|| can exceed the residual ||Ax - b||.

    The correction lies in the row space, where ||Av|| >= sigma_min ||v||, so
    correction^2 * sigma_min^2 <= residual^2. Both the identity
    ||A(x - y)||^2 == residual^2 and that inequality (with the certified
    rational bound sigma_min^2 >= 1/trace((AA^T)^-1)) are checked exactly and
    raise CertificationFailed when they fail. The estimate of 1/sigma_min^2 is
    a power iteration's, from a fixed seed-0 start.
    """
    A, b, x = _linear_system(A, b, x)
    r = linalg.vsub(linalg.mat_vec(A, x), b)
    try:
        Ginv = linalg.invert(linalg.gram(A))
    except SingularMatrix:
        raise DependentRows("the system matrix must have independent rows") from None
    corr = linalg.vec_mat(linalg.mat_vec(Ginv, r), A)
    residual_sq = linalg.norm_sq(r)
    correction_sq = linalg.norm_sq(corr)
    if linalg.mat_vec(A, corr) != r:
        raise CertificationFailed("A (x - y) differs from the residual A x - b")
    trace_inv = sum((Ginv[i][i] for i in range(len(A))), Fraction(0))
    sigma_min_sq_lower = 1 / trace_inv
    if correction_sq * sigma_min_sq_lower > residual_sq:
        raise CertificationFailed("correction^2 * sigma_min^2 lower bound exceeds residual^2")
    rng = SplitMix64(0)
    v = as_vec([rng.int_between(1, 16) for _ in range(len(A))])
    for _ in range(POWER_ITERS):
        v = linalg.mat_vec(Ginv, v)
        scale = max(abs(e) for e in v)
        v = tuple(e / scale for e in v)
    return ResidualReport(
        y=linalg.vsub(x, corr),
        residual_norm_sq=residual_sq,
        correction_norm_sq=correction_sq,
        sigma_min_sq_lower=sigma_min_sq_lower,
        inv_sigma_min_sq_estimate=linalg.dot(v, linalg.mat_vec(Ginv, v)) / linalg.dot(v, v),
    )


@record
class PairCheck:
    k: int
    product_sq: Fraction          # lambda_k(L)^2 * lambda_{m-k+1}(dual)^2
    rank_bound_sq: Fraction       # m^2
    within_rank_bound: bool
    factorial_bound_sq: Fraction  # (m!)^2
    within_factorial_bound: bool


@record
class IntervalCheck:
    lhs_lower_sq: Fraction
    lhs_upper_sq: Fraction
    bound_sq: Fraction
    verdict: str  # "satisfied" | "violated" | "indeterminate"


def _interval(lo: Fraction, hi: Fraction, bound: Fraction) -> IntervalCheck:
    verdict = "satisfied" if hi <= bound else ("violated" if lo > bound else "indeterminate")
    return IntervalCheck(lhs_lower_sq=lo, lhs_upper_sq=hi, bound_sq=bound, verdict=verdict)


@record
class TransferenceReport:
    rank: int
    minima_sq: tuple[Fraction, ...]
    dual_minima_sq: tuple[Fraction, ...]
    mu_dual: CoveringRadiusBounds
    per_k: tuple[PairCheck, ...]
    covering_pair: IntervalCheck            # lambda_1(L)^2 mu(dual)^2 <= m^3/4
    covering_pair_factorial: IntervalCheck  # lambda_1(L)^2 mu(dual)^2 <= (m m!/2)^2
    dual_basis_bound: IntervalCheck         # mu(dual)^2 <= (m/2)^2 lambda_m(dual)^2

    def _verdicts(self) -> set[str]:
        return {c.verdict for c in (self.covering_pair, self.covering_pair_factorial,
                                    self.dual_basis_bound)} | {
            "satisfied" if c.within_rank_bound and c.within_factorial_bound else "violated"
            for c in self.per_k}

    @property
    def any_violation(self) -> bool:
        return "violated" in self._verdicts()

    @property
    def all_satisfied(self) -> bool:
        return self._verdicts() == {"satisfied"}


def transference_check(L: Lattice, node_budget: int = DEFAULT_NODE_BUDGET) -> TransferenceReport:
    """Evaluate the minima/covering inequalities tying L to its dual.

    Everything is compared in squared form. The covering radius of the dual
    is exact up to rank MINKOWSKI_MAX_RANK; above it, it enters as an
    interval, and a check whose bound falls inside the interval reports
    "indeterminate" rather than a verdict it cannot certify.
    """
    m = L.rank
    mins = successive_minima(L, node_budget=node_budget).minima_sq
    dmins = successive_minima(dual(L), node_budget=node_budget).minima_sq
    mu = covering_radius(dual(L), node_budget=node_budget)
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


@record
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


def _slab_step(C: list, T: list[int], dd: int, Gz, X, q: int) -> tuple[tuple[int, ...], int]:
    """The least-squares step in integers: the point nearest to xi = X / q in
    the metric Gz with c.y = t / dd for the independent rows c of C (the
    probe's repair passes L's Gram matrix times any positive integer, which
    is the dual metric in dual coordinates; almost_near_linear the identity).
    With R' = C Gz, H = C R'^T and rho = C X dd - T q, it is y = (X dd det H -
    R'^T sigma) / (q dd det H) for sigma = det H * H^-1 rho, the last column
    of [H | rho] after the shared fraction-free elimination."""
    Rp = [[sum(map(mul, c, g)) for g in Gz] for c in C]
    M = [[sum(map(mul, c, r)) for r in Rp] + [sum(map(mul, c, X)) * dd - t * q]
         for c, t in zip(C, T)]
    pivots, det = linalg._eliminate(M, len(C))
    if len(pivots) < len(C):
        raise DependentRows("the system matrix must have independent rows")
    sigma = [row[-1] for row in M]
    Y = [a * dd * det - sum(map(mul, sigma, col)) for a, col in zip(X, zip(*Rp))]
    if any(sum(map(mul, c, Y)) != t * q * det for c, t in zip(C, T)):
        raise CertificationFailed("the corrected point does not solve A y = b")
    return _lowest(Y, q * dd * det)


def _violated(Ns: list[int], q: int, dn: int, dd: int) -> list[int]:
    """Indices of the N/q farther than delta = dn/dd from every integer:
    (N/q + delta) mod 1 > 2 delta, as delta < 1/2."""
    shift, period, bound = dn * q, dd * q, 2 * dn * q
    return [i for i, N in enumerate(Ns) if (N * dd + shift) % period > bound]


def probe_worst_distance(L: Lattice, delta, radius_sq, *, seed: int = 0, restarts: int = 32,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[Fraction, Vec]:
    """Heuristic maximum of dist(x, dual)^2 over {x in span(L) : every u in L
    with ||u||^2 <= radius_sq has |u.x| within delta of an integer}, a certified
    lower bound with an exactly feasible witness: _probe_levels at one level."""
    delta = linalg.as_rational(delta)
    if not 0 <= delta < THIRD:
        raise ValueError(f"delta must be in [0, 1/3), got {delta}")
    listing = list_vectors(L, radius_sq, node_budget=node_budget)
    C = tuple(c for c, _ in listing.vectors)
    return next(_probe_levels(L, delta, C, [(listing.radius_sq, len(C))],
                              seed, restarts, node_budget))


def _probe_levels(L: Lattice, delta: Fraction, C: tuple, levels, seed: int, restarts: int,
                  node_budget: int):
    """Yield the probe's (f, witness) at each level (radius_sq, k), over the
    constraints C[:k]: a prefix of the listing's coordinate rows c, in norm order.

    Multistart local ascent in the coordinates xi of the dual basis W,
    x = xi W, where a constraint u = c B gives u.x = c.xi: every point is a
    pair (X, q) of integers in lowest terms with xi = X / q. Each start is
    branched to the nearest integer per constraint, repaired onto the slab
    faces by least squares in the metric of the dual (the ambient nearest
    point, as it lies in span(L)), then pushed away from its nearest dual
    point until a slab face blocks or ASCENT_CAP points are visited, all in
    integers. The starts (the dual's holes from _deep_holes, the half-vectors
    and `restarts` points drawn from `seed`) are made once, and each level's
    best point joins them for the later levels. Each level's answer starts at
    (0, origin), feasible and on the dual, so the probe never fails; ties go to
    the least ambient witness, so the order of the starts does not matter.

    Three tables live for one sweep, not on L: each point's slab scan (the
    rows read, the echelon, rows and face targets of the violated rows chosen,
    and its repair step), resumed over a level's new rows, each searched point's
    nearest dual point and each compared point's ambient vector. So every step,
    search and vector is made once; a push recomputes c.X for its own point. A
    start whose repair fails at every later level too leaves the starts.
    """
    Ld, m = dual(L), L.rank
    dn, dd = delta.numerator, delta.denominator
    Gz = linalg.clear_denominators(L.gram_matrix)[0]
    # per sweep: p -> [rows read, echelon, chosen rows, their face targets,
    # (rows the step was taken from, step)]
    scans: dict = {}

    def products(X, lo: int, hi: int) -> list[int]:
        """c.X for the constraint rows C[lo:hi]."""
        return [sum(map(mul, c, X)) for c in C[lo:hi]]

    def scan(p, enough: int) -> list:
        """p's slab scan resumed over the level's new rows, in blocks of 8, 16, ...,
        until `enough` independent violated rows are chosen: the rows chosen up to a
        level start the choice at every later one, whose new rows come later in norm
        order. It stops just past the row that completes the choice, so a scan that
        asked for fewer rows goes on to choose the rows a full one would."""
        s = scans.setdefault(p, [0, [], [], [], None])
        X, q = p
        read, echelon, rows, targets, _ = s
        size = 8
        while read < k and len(rows) < enough:
            new = products(X, read, min(k, read + size))
            end = read + len(new)
            for i in _violated(new, q, dn, dd):
                c = v = C[read + i]
                for j, e in echelon:
                    if v[j]:
                        v = [e[j] * a - v[j] * b for a, b in zip(v, e)]
                pivot = next((j for j, a in enumerate(v) if a), None)
                if pivot is not None:
                    echelon.append((pivot, v))
                    rows.append(c)
                    r = linalg._round_half_even(new[i], q)  # c.y = target / dd on the nearest face
                    targets.append(r * dd - dn if new[i] < r * q else r * dd + dn)
                    if len(rows) == enough:
                        end = read + i + 1
                        break
            read, size = end, 2 * size
        s[0] = read
        return s

    def repair(p):
        """A feasible point near p after at most four steps; None if there is
        none, False if there is none at any later level either. A step from
        fewer than m rows is taken again once a later level's rows add to the
        choice; m rows stay chosen, so four such steps and the fifth point's
        violated row stay too. The fifth point's scan stops at that row."""
        settled = True
        for _ in range(4):
            s = scan(p, m)
            rows, targets, taken = s[2:]
            if not rows:
                return p
            settled = settled and len(rows) == m
            if taken is None or taken[0] < len(rows):
                s[4] = taken = len(rows), _slab_step(rows, targets, dd, Gz, *p)
            p = taken[1]
        if not scan(p, 1)[2]:
            return p
        return False if settled else None

    @cache
    def closest(p):
        return _closest(Ld, p, node_budget)

    def push(p, coords: tuple[int, ...]) -> list:
        """Candidate points farther from the nearest dual point coords,
        staying inside the current branch slabs."""
        # with c.xi = N/q and c.d = A/q for d = xi - coords, the step to the
        # face r +- delta is ((r dd +- dn) q - N dd) / (A dd)
        X, q = p
        d = [a - c * q for a, c in zip(X, coords)]
        num = den = 0
        for N, A in zip(products(X, 0, k), products(d, 0, k)):
            if A == 0:
                continue
            r = linalg._round_half_even(N, q)
            if A > 0:
                a, b = (r * dd + dn) * q - N * dd, A
            else:
                a, b = N * dd - (r * dd - dn) * q, -A
            if not den or a * den < num * b:
                num, den = a, b
        if not den:
            return [_lowest([a + (b << j) for a, b in zip(X, d)], q) for j in range(6)]
        if num <= 0:
            return []
        s = den * dd
        return [_lowest([a * s * h + num * b for a, b in zip(X, d)], q * s * h) for h in (1, 2)]

    def local_max(p0):
        """Ascend from the repaired p0 to the farthest push candidate while it
        is farther than the current point: the distance rises at every step,
        so the last point is the best. It visits at most ASCENT_CAP points;
        None or False as repair(p0) when that fails."""
        p = repair(p0)
        if not p:
            return p
        near = closest(p)
        for _ in range(ASCENT_CAP - 1):
            if not near[0]:
                break
            top = max(((closest(c), c) for c in push(p, near[1])),
                      key=lambda t: t[0][0], default=(near, p))
            if top[0][0] <= near[0]:
                break
            near, p = top
        return near[0], p

    @cache
    def ambient(p) -> Vec:
        return linalg.vec_mat(tuple(Fraction(a, p[1]) for a in p[0]), Ld.basis)

    starts = list(_deep_holes(Ld, node_budget)[0])
    masks = (range(1, 2**m) if m <= MINKOWSKI_MAX_RANK
             else [1 << i for i in range(m)] + [2**m - 1])
    starts += [(tuple(mask >> i & 1 for i in range(m)), 2) for mask in masks]
    rng = SplitMix64(seed)
    starts += [linalg._scaled([rng.fraction() for _ in range(m)]) for _ in range(restarts)]
    starts = dict.fromkeys(starts)

    for radius_sq, k in levels:
        best_f, best_p = Fraction(0), ((0,) * m, 1)
        for p0 in list(starts):
            got = local_max(p0)
            if got is False:
                del starts[p0]
            elif got and (got[0] > best_f or got[0] == best_f and got[1] != best_p
                          and ambient(got[1]) < ambient(best_p)):
                best_f, best_p = got
        w = ambient(best_p)
        # certified independently of the integer slab tests: u.w = c.(B w)
        if _violations(C[:k], linalg.mat_vec(L.basis, w), delta):
            raise CertificationFailed(f"the probe witness violates the hypothesis at "
                                      f"radius^2 {radius_sq}")
        starts[best_p] = None
        yield best_f, w


@record
class StabilityProbe:
    """estimated_r_sq is the least probed level whose certified lower bound f_hat_sq is
    <= epsilon_sq: never above the first probed level at or above the exact least
    radius, and a lower bound on it when levels_dropped is 0 (see stability_radius)."""
    delta: Fraction
    epsilon_sq: Fraction
    radius_grid: tuple[Fraction, ...]
    f_hat_sq: tuple[Fraction, ...]
    witnesses: tuple[Vec, ...]
    estimated_r_sq: Fraction
    base_radius_sq: Fraction      # max ||v_i||^2 over the reduced basis
    base_bound_sq: Fraction       # delta^2 * m * sum ||w_i||^2 at that radius
    sufficient_radius_sq: Fraction  # scaled level whose bound drops below epsilon^2
    sufficient_bound_sq: Fraction
    scaling_steps: int
    reduction_kind: str           # "minkowski", or "lll" above the rank cap (weaker bound)
    levels_dropped: int           # grid levels below the top one that max_levels left out


def stability_radius(L: Lattice, delta, epsilon_sq, *, seed: int = 0, restarts: int = 32,
                     node_budget: int = DEFAULT_NODE_BUDGET,
                     max_levels: int = 32) -> StabilityProbe:
    """Estimate how large the constraint radius must be before every feasible
    x sits within epsilon of the dual lattice.

    The radius grid consists of norms actually achieved by lattice vectors,
    capped at the analytic sufficient level: with a reduced basis (v_i), dual
    rows (w_i) and K = ceil_sqrt(delta^2 m sum||w_i||^2 / epsilon^2), the
    constraints at radius K*max||v_i|| pin every |v_i . x| within delta/K of
    an integer (this pinching needs delta < 1/3), so rounding lands within
    epsilon. The probed curve is therefore guaranteed to dip below epsilon^2
    by the top level. estimated_r_sq is the least probed level whose certified
    lower bound f_hat^2 is <= epsilon^2; the exact worst distance^2 is at least
    f_hat^2 and does not grow with the radius, so it is never above the first
    probed level at or above the exact least radius (the least norm^2 where that
    distance^2 is <= epsilon^2), and with levels_dropped 0 it is a lower bound
    on that radius (Z^2 at epsilon^2 = 1/120: 9 against 10). Reported values
    are monotone: each level is warm-started from the earlier witnesses and a
    final backward pass propagates any later, still feasible witness to the
    smaller radii where it is feasible too. The levels run as one _probe_levels
    sweep, which makes each repair step and each nearest-point search once for
    the whole grid.
    """
    delta = linalg.as_rational(delta)
    epsilon_sq = linalg.as_rational(epsilon_sq)
    if not 0 < delta < THIRD:
        raise ValueError(f"delta must be in (0, 1/3), got {delta}")
    if epsilon_sq <= 0:
        raise ValueError("epsilon_sq must be positive")
    if max_levels < 1:
        raise ValueError(f"max_levels must be at least 1, got {max_levels}")
    m = L.rank
    # a reduced basis V, whose dual rows W solve gram(V) W = V; above the cap, the
    # LLL rows that the searches run on, which are the rows lll(L) gives
    V, kind = ((minkowski_reduce(L, node_budget=node_budget).basis, "minkowski")
               if m <= MINKOWSKI_MAX_RANK else (_prep(L).rows, "lll"))
    sum_w = sum((linalg.norm_sq(w) for w in linalg.solve_matrix(linalg.gram(V), V)), Fraction(0))
    base_radius_sq = max(linalg.norm_sq(v) for v in V)
    base_bound_sq = delta * delta * m * sum_w
    K = max(1, linalg.ceil_sqrt(base_bound_sq / epsilon_sq))
    suff_radius_sq = K * K * base_radius_sq
    suff_bound_sq = base_bound_sq / (K * K)

    coords, norms = zip(*list_vectors(L, suff_radius_sq, node_budget=node_budget))
    levels = sorted(set(norms))
    levels_dropped = max(0, len(levels) - max_levels)
    if levels_dropped:
        levels = levels[: max_levels - 1] + [levels[-1]]

    curve: list[tuple[Fraction, Vec]] = []  # (f, witness) per level
    try:
        for got in _probe_levels(L, delta, coords,
                                 [(r2, bisect_right(norms, r2)) for r2 in levels],
                                 seed, restarts, node_budget):
            curve.append(got)
    except BudgetExceeded as err:
        err.args = (f"{err}, at probe level radius^2 {levels[len(curve)]}",)
        raise
    for i in range(len(levels) - 2, -1, -1):
        if curve[i + 1][0] > curve[i][0]:
            curve[i] = curve[i + 1]
    f_hats, witnesses = zip(*curve)
    estimated = next((r2 for r2, f in zip(levels, f_hats) if f <= epsilon_sq), None)
    if estimated is None:
        raise CertificationFailed(f"the probe exceeds epsilon^2 {epsilon_sq} at the "
                                  f"analytic sufficient radius^2 {levels[-1]}")
    return StabilityProbe(
        delta=delta,
        epsilon_sq=epsilon_sq,
        radius_grid=tuple(levels),
        f_hat_sq=f_hats,
        witnesses=witnesses,
        estimated_r_sq=estimated,
        base_radius_sq=base_radius_sq,
        base_bound_sq=base_bound_sq,
        sufficient_radius_sq=suff_radius_sq,
        sufficient_bound_sq=suff_bound_sq,
        scaling_steps=K,
        reduction_kind=kind,
        levels_dropped=levels_dropped,
    )


@record
class FamilyDiagnostics:
    scale: Fraction
    lattice: Lattice
    minima_sq: tuple[Fraction, ...]
    dual_minima_sq: tuple[Fraction, ...]
    mu_dual_sq: Fraction
    probe: StabilityProbe


def degenerate_family(c, d_values, delta=Fraction(1, 4), epsilon_sq=Fraction(1, 100), *,
                      seed: int = 0, restarts: int = 32,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[FamilyDiagnostics, ...]:
    """Diagonal lattices c*Z x d*Z for growing d: the dual direction with
    spacing 1/d collapses, showing how degenerating minima stress the
    stability radius. Reports minima of both sides, the exact dual covering
    radius, and a stability probe per member."""
    c, ds = linalg.as_rational(c), [linalg.as_rational(d) for d in d_values]
    if c <= 0 or any(d <= 0 for d in ds):
        raise ValueError("family scales must be positive")
    out = []
    for d in ds:
        L = Lattice(as_mat([[c, 0], [0, d]]))
        probe = stability_radius(L, delta, epsilon_sq, seed=seed, restarts=restarts,
                                 node_budget=node_budget)
        out.append(FamilyDiagnostics(
            scale=d,
            lattice=L,
            minima_sq=successive_minima(L, node_budget=node_budget).minima_sq,
            dual_minima_sq=successive_minima(dual(L), node_budget=node_budget).minima_sq,
            mu_dual_sq=covering_radius(dual(L), node_budget=node_budget).lower_sq,
            probe=probe,
        ))
    return tuple(out)

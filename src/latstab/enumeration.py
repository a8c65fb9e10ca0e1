"""Exact lattice point enumeration and the quantities built on it.

All searches walk a depth-first tree over Gram-Schmidt coordinates of an
LLL-reduced working basis (Schnorr-Euchner ordering: candidates at each
level leave the interval center outward, nearer side first). The scan runs
on integers: the Gram-Schmidt data of each lattice comes from integral
LLL (de Weger 1987; Cohen Alg. 2.6.7), reduced once to the least integers,
and the target is scaled once by its common denominator q, so every bound
test is an exact integer comparison at the common scale S q^2: the scan
neither reads nor builds a Fraction, each reported number is built once, and
floats never enter. A node budget caps the tree walk and raising
BudgetExceeded is the only way a search gives up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import mul

from . import linalg
from .errors import BudgetExceeded, CertificationFailed, NotInSpan, RankTooLarge
from .lattice import Lattice, per_lattice
from .linalg import Mat, Vec, _lowest, _round_half_even, _scaled, as_mat, as_vec
from .reduction import DEFAULT_DELTA, MINKOWSKI_MAX_RANK, _lll_rows
from .rng import SplitMix64

DEFAULT_NODE_BUDGET = 10_000_000
ASCENT_SEED, ASCENT_RESTARTS = 0, 16  # the random starts of _deep_holes above rank 4


@dataclass(frozen=True)
class ShortVectorList:
    """Nonzero vectors with norm_sq <= radius_sq, one of each +-pair, as
    (coords, norm_sq) sorted by norm then coordinates."""

    radius_sq: Fraction
    vectors: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


@dataclass(frozen=True)
class SuccessiveMinima:
    minima_sq: tuple[Fraction, ...]
    achieving_vectors: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class NearResult:
    """A lattice point, its integer coordinates in the stored basis, and the
    exact squared distance to the query."""

    point: Vec
    coords: tuple[int, ...]
    dist_sq: Fraction


@dataclass(frozen=True)
class CoveringRadiusBounds:
    lower_sq: Fraction
    upper_sq: Fraction
    exact: bool
    witness: Vec


class _Budget:
    __slots__ = ("cap", "left", "search")

    def __init__(self, cap: int, op: str, rank: int, radius_sq: Fraction):
        self.cap = self.left = cap
        self.search = (op, rank, radius_sq)

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded(self.cap, "{} at rank {}, radius^2 {}".format(*self.search))


@dataclass(frozen=True)
class _Prep:
    rows: Mat                       # LLL-reduced working basis
    transform: tuple[tuple[int, ...], ...]  # working = transform * stored
    # the Gram-Schmidt coefficients mu and squared norms gamma of the rows in
    # the least integers: e_i = M[i][i] is the lcm of the denominators of
    # column i of mu, M[j][i] = mu[j][i] e_i for i <= j, S the least common
    # multiple of e_i^2 den(gamma[i]) and w[i] = gamma[i] S / e_i^2
    M: tuple[tuple[int, ...], ...]
    S: int
    w: tuple[int, ...]
    # sum(gamma) / 4: no target lies farther than this from Babai's
    # nearest-plane point, which is the scan's first leaf (Babai 1986)
    plane_sq: Fraction

    @cached_property
    def inverse(self) -> tuple[tuple[int, ...], ...]:  # working coords = stored coords * inverse
        return tuple(tuple(int(a) for a in r) for r in linalg.invert(as_mat(self.transform)))


@per_lattice
def _prep(L: Lattice) -> _Prep:
    rows, U, d, lam, D = _lll_rows(L.basis, DEFAULT_DELTA)
    # mu[j][i] = lam[j][i] / d[i+1], so e_i = d[i+1] / g_i, g_i the gcd of lam's column i
    g = [gcd(*col) for col in zip(*lam)]
    M = tuple(tuple(a // gi for a, gi in zip(lj[:j + 1], g)) for j, lj in enumerate(lam))
    gamma = [Fraction(b, a * D * D) for a, b in zip(d, d[1:])]
    S = lcm(*(Mi[-1] ** 2 * gm.denominator for Mi, gm in zip(M, gamma)))
    w = tuple(gm.numerator * (S // (Mi[-1] ** 2 * gm.denominator)) for Mi, gm in zip(M, gamma))
    return _Prep(rows=rows, transform=U, M=M, S=S, w=w, plane_sq=sum(gamma) / 4)


def _se_scan(prep: _Prep, t: tuple, lim: list[int], on_leaf, budget: _Budget) -> None:
    """DFS over integer combinations c of the working rows, pruning exactly on
    N(c) = S q^2 sum_i (c_i - center_i)^2 gamma_i > lim[0] and passing each
    leaf's integer N(c) to on_leaf(c, N). The limit is an integer at the scale
    S q^2 (a rational bound r enters as floor(r S q^2)); it may shrink inside
    on_leaf, and ties at it are still visited. No Fraction is read or built.

    The target comes scaled, t = (T, q) for the working coordinates T / q
    with q > 0: center_i = Cn_i / (q e_i), e_i = M[i][i], for the integer
    Cn_i = T_i e_i + sum_{j>i} (T_j - c_j q) M[j][i], and each term of N(c)
    is the integer (c_i q e_i - Cn_i)^2 w_i."""
    M, w = prep.M, prep.w
    m = len(M)
    T, q = t
    c = [0] * m

    def descend(i: int, partial: int, ci: int, contrib: int):
        c[i] = ci
        if i == 0:
            on_leaf(tuple(c), partial + contrib)
        else:
            level(i - 1, partial + contrib)

    def level(i: int, partial: int):
        ei, wi = M[i][i], w[i]
        qe, Cn = q * ei, T[i] * ei
        for j in range(i + 1, m):
            Cn += (T[j] - c[j] * q) * M[j][i]
        c0 = _round_half_even(Cn, qe)
        d0 = c0 * qe - Cn
        budget.tick()
        contrib = d0 * d0 * wi
        if partial + contrib > lim[0]:
            return
        descend(i, partial, c0, contrib)
        up, dn = c0 + 1, c0 - 1
        d_up, d_dn = d0 + qe, d0 - qe
        up_c, dn_c = d_up * d_up * wi, d_dn * d_dn * wi
        up_alive = dn_alive = True
        while up_alive or dn_alive:
            if up_alive and (not dn_alive or up_c <= dn_c):
                budget.tick()
                if partial + up_c > lim[0]:
                    up_alive = False
                else:
                    descend(i, partial, up, up_c)
                    up += 1
                    d_up += qe
                    up_c = d_up * d_up * wi
            else:
                budget.tick()
                if partial + dn_c > lim[0]:
                    dn_alive = False
                else:
                    descend(i, partial, dn, dn_c)
                    dn -= 1
                    d_dn -= qe
                    dn_c = d_dn * d_dn * wi

    level(m - 1, 0)


def _to_stored(prep: _Prep, c_work: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(map(mul, c_work, col)) for col in zip(*prep.transform))


def _canonical_sign(coords: tuple[int, ...]) -> tuple[int, ...]:
    lead = next((a for a in coords if a), 0)
    return tuple(-a for a in coords) if lead < 0 else coords


def list_vectors(L: Lattice, radius_sq, node_budget: int = DEFAULT_NODE_BUDGET) -> ShortVectorList:
    """All nonzero lattice vectors with norm_sq <= radius_sq, up to sign.

    Coordinates refer to the stored basis, sign-normalized so the first
    nonzero coordinate is positive.
    """
    radius_sq = linalg.as_rational(radius_sq)
    if radius_sq < 0:
        raise ValueError(f"radius_sq must be nonnegative, got {radius_sq}")
    prep = _prep(L)
    found: list[tuple[int, tuple[int, ...]]] = []

    def on_leaf(c_work: tuple[int, ...], N: int):
        # one leaf of each +-pair: the one whose first nonzero working coordinate is positive
        if next((a for a in c_work if a), 0) > 0:
            found.append((N, _canonical_sign(_to_stored(prep, c_work))))

    _se_scan(prep, ((0,) * L.rank, 1), [radius_sq.numerator * prep.S // radius_sq.denominator],
             on_leaf, _Budget(node_budget, "list_vectors", L.rank, radius_sq))
    return ShortVectorList(radius_sq=radius_sq, vectors=tuple(
        (coords, Fraction(N, prep.S)) for N, coords in sorted(found)))


def shortest_vector(L: Lattice, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[tuple[int, ...], Fraction]:
    """A shortest nonzero vector as (coords, norm_sq); ties resolved to the
    lexicographically smallest sign-canonical coordinate vector."""
    start = min(linalg.norm_sq(r) for r in _prep(L).rows)
    return list_vectors(L, start, node_budget=node_budget).vectors[0]


@per_lattice
def _minima_listing(L: Lattice, node_budget: int) -> ShortVectorList:
    """The listing up to the longest working row, for the minima and Minkowski; kept on L."""
    return list_vectors(L, max(linalg.norm_sq(r) for r in _prep(L).rows), node_budget=node_budget)


@per_lattice
def successive_minima(L: Lattice, node_budget: int = DEFAULT_NODE_BUDGET) -> SuccessiveMinima:
    """All rank many successive minima, with rank-increasing witnesses; kept on L."""
    minima: list[Fraction] = []
    achieving: list[tuple[int, ...]] = []
    # the basis rows are independent, so vectors are independent iff their coordinates are
    for coords, nsq in _minima_listing(L, node_budget).vectors:
        if len(linalg._eliminate([*achieving, coords], L.rank)[0]) > len(achieving):
            minima.append(nsq)
            achieving.append(coords)
            if len(achieving) == L.rank:
                break
    if len(achieving) != L.rank:
        raise CertificationFailed(f"the listing up to the longest working row reaches "
                                  f"rank {len(achieving)}, not {L.rank}")
    return SuccessiveMinima(minima_sq=tuple(minima), achieving_vectors=tuple(achieving))


def closest_vector(L: Lattice, x, project: bool = False,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> NearResult:
    """Exact closest lattice point to x.

    x must lie in span(L) unless project=True, in which case the search runs
    on the projection and the reported distance still refers to x itself
    (the orthogonal part is constant across lattice points).
    """
    x = as_vec(x)
    t = linalg.rowspace_coefficients(L.basis, x)
    extra = Fraction(0)
    if t is None:
        if not project:
            raise NotInSpan("target is outside span(L)")
        t = linalg.solve(L.gram_matrix, linalg.mat_vec(L.basis, x))
        extra = linalg.norm_sq(linalg.vsub(x, linalg.vec_mat(t, L.basis)))
    dist_sq, coords = _closest(L, _scaled(t), node_budget)
    point = linalg.vec_mat(as_vec(coords), L.basis)
    return NearResult(point=point, coords=coords, dist_sq=dist_sq + extra)


def _closest(L: Lattice, p: tuple, node_budget: int) -> tuple[Fraction, tuple[int, ...]]:
    """Every nearest-point search: for X / q in stored coordinates, p = (X, q) in
    lowest terms (kept so by the unimodular map to working coordinates), the
    least squared distance and the least stored coordinates reaching it."""
    prep = _prep(L)
    X, q = p
    t = tuple(sum(map(mul, X, col)) for col in zip(*prep.inverse)), q
    scale, plane = prep.S * q * q, prep.plane_sq
    best: list = [plane.numerator * scale // plane.denominator, []]  # best[0] is the scan's limit

    def on_leaf(c_work: tuple[int, ...], N: int):
        if N < best[0]:
            best[:] = N, [c_work]
        elif N == best[0]:
            best[1].append(c_work)

    _se_scan(prep, t, best, on_leaf, _Budget(node_budget, "closest_vector", L.rank, plane))
    return Fraction(best[0], scale), min(_to_stored(prep, c) for c in best[1])


def _covering_upper_sq(L: Lattice, node_budget: int) -> Fraction:
    """min(m^2/4 * lambda_m^2, sum of |b*_i|^2 / 4): two upper bounds on mu(L)^2."""
    lam_m_sq = successive_minima(L, node_budget=node_budget).minima_sq[-1]
    return min(Fraction(L.rank ** 2, 4) * lam_m_sq, _prep(L).plane_sq)


def _cut(cell: list, A: tuple[int, ...], h: int) -> list:
    """The symmetric cell cut to |2 A . X| <= h q, one step of double description
    (Motzkin et al. 1953) on vertices xi = X / q kept as (X, q, tight), tight the signed
    integer normals of the faces s 2 A' . X <= h' q the vertex lies on. Outside p and inside
    r span an edge iff the normals tight at both have rank m - 1 (Fukuda-Prodon 1996), and
    it meets the face at an integer combination of p and r in lowest terms. A alone cuts:
    the vertices on the face of -A are the new vertices' mirrors (-X, q)."""
    m, neg = len(A), tuple(-a for a in A)
    vals = [(2 * sum(map(mul, A, X)), h * q) for X, q, _ in cell]
    outer = [(p, ax - hq) for p, (ax, hq) in zip(cell, vals) if ax > hq]
    inner = [(r, ax - hq) for r, (ax, hq) in zip(cell, vals) if ax < hq]
    new = []
    for (p, gp), (r, gr) in product(outer, inner):
        common = p[2] & r[2]
        if len(common) >= m - 1 and len(linalg._eliminate(list(common), m)[0]) == m - 1:
            new.append((*_lowest([gp * y - gr * x for x, y in zip(p[0], r[0])],
                                 gp * r[1] - gr * p[1]), common | {A}))
    cell = [(X, q, tight | {A} if ax == hq else tight | {neg} if ax == -hq else tight)
            for (X, q, tight), (ax, hq) in zip(cell, vals) if abs(ax) <= hq]
    return cell + new + [(tuple(-x for x in X), q, frozenset(tuple(-a for a in b) for b in tight))
                         for X, q, tight in new]


def _voronoi_vertex_data(L: Lattice, node_budget: int) -> tuple:
    """Vertices of the Voronoi cell of the origin as coordinates X / q in L's
    basis, pairs (X, q) in lowest terms, the exact squared covering radius,
    and the witness vertex in ambient coordinates. Built per call; _deep_holes keeps it."""
    m = L.rank
    if m > MINKOWSKI_MAX_RANK:
        raise RankTooLarge(f"exact covering radius capped at rank {MINKOWSKI_MAX_RANK}, got {m}")
    G = L.gram_matrix
    Gz, D = linalg.clear_denominators(G)
    # The minima's faces bound a parallelepiped holding the cell, and every relevant vector lies
    # within 2 mu (Voronoi 1908), so a listed c cuts it down by _cut at A = c Gz, h = A . c.
    mins = successive_minima(L, node_budget=node_budget)
    signs = tuple(product((1, -1), repeat=m))
    rhs = tuple(tuple(s[i] * h / 2 for s in signs) for i, h in enumerate(mins.minima_sq))
    X = linalg.solve_matrix(linalg.mat_mul(as_mat(mins.achieving_vectors), G), rhs)
    normals = [tuple(sum(map(mul, c, row)) for row in Gz) for c in mins.achieving_vectors]
    cell = [(*_scaled(xi), frozenset(tuple(si * a for a in A) for A, si in zip(normals, s)))
            for xi, s in zip(zip(*X), signs)]
    mu_ub_sq = _covering_upper_sq(L, node_budget)
    for c, _ in list_vectors(L, 4 * mu_ub_sq, node_budget=node_budget).vectors:
        A = tuple(sum(map(mul, c, row)) for row in Gz)
        cell = _cut(cell, A, sum(map(mul, A, c)))
    verts = sorted((tuple(Fraction(a, q) for a in X), X, q) for X, q, _ in cell)
    norms = [Fraction(sum(map(mul, X, (sum(map(mul, X, row)) for row in Gz))), D * q * q)
             for _, X, q in verts]
    # deepest hole: the longest vertex, ties to the greatest ambient vector
    best_sq = max(norms)
    witness = max(linalg.vec_mat(v[0], L.basis) for v, nsq in zip(verts, norms) if nsq == best_sq)
    return tuple((X, q) for _, X, q in verts), best_sq, witness


@per_lattice
def _deep_holes(L: Lattice, node_budget: int) -> tuple:
    """L's holes, kept on L for the covering radius and the probe's starts: pairs
    (X, q) in lowest terms for the points X / q in L's basis, the deepest one's
    squared distance, and its ambient witness. Up to rank MINKOWSKI_MAX_RANK the
    Voronoi cell's vertices (exact); above it, the end points of a coordinate
    ascent of the distance (an exact search per value) from the half-vectors and
    ASCENT_RESTARTS points of ASCENT_SEED, by steps 1/4 to 1/64 while it strictly
    rises: a lower bound, witnessed by the first end point reaching it."""
    m = L.rank
    if m <= MINKOWSKI_MAX_RANK:
        return _voronoi_vertex_data(L, node_budget)
    rng = SplitMix64(ASCENT_SEED)
    starts = [((1,) * m, 2)] + [(tuple(int(i == j) for j in range(m)), 2) for i in range(m)]
    starts += [_scaled([rng.fraction() for _ in range(m)]) for _ in range(ASCENT_RESTARTS)]
    ends = []
    for p in starts:
        f = _closest(L, p, node_budget)[0]
        for k in range(2, 7):  # the step 1 / 2^k, from 1/4 down to 1/64
            moved = True
            while moved:
                moved = False
                for i, sgn in product(range(m), (1, -1)):
                    X, q = p
                    cand = _lowest([(a << k) + sgn * q * (j == i) for j, a in enumerate(X)], q << k)
                    fc = _closest(L, cand, node_budget)[0]
                    if fc > f:
                        p, f, moved = cand, fc, True
        ends.append((f, p))
    f, (X, q) = max(ends, key=lambda e: e[0])  # the first of the deepest
    return tuple(p for _, p in ends), f, linalg.vec_mat(tuple(Fraction(a, q) for a in X), L.basis)


def covering_radius(L: Lattice, *, node_budget: int = DEFAULT_NODE_BUDGET) -> CoveringRadiusBounds:
    """Covering radius of L within its span, squared: the deepest of _deep_holes.
    Up to rank MINKOWSKI_MAX_RANK (4) it is exact, lower_sq == upper_sq, and
    certified by a search at the witness; above it upper_sq is analytic and exact False."""
    mu_sq, witness = _deep_holes(L, node_budget)[1:]
    if L.rank > MINKOWSKI_MAX_RANK:
        return CoveringRadiusBounds(lower_sq=mu_sq, upper_sq=_covering_upper_sq(L, node_budget),
                                    exact=False, witness=witness)
    check = closest_vector(L, witness, node_budget=node_budget)
    if check.dist_sq != mu_sq:
        raise CertificationFailed(f"deepest-hole witness lies at distance^2 {check.dist_sq}, "
                                  f"not at the vertex norm {mu_sq}")
    return CoveringRadiusBounds(lower_sq=mu_sq, upper_sq=mu_sq, exact=True, witness=witness)

"""Exact lattice point enumeration and the quantities built on it.

All searches walk a depth-first tree over Gram-Schmidt coordinates of an
LLL-reduced working basis (Schnorr-Euchner ordering: candidates at each
level leave the interval center outward, nearer side first). The scan runs
on integers: the Gram-Schmidt data of each lattice is scaled once to
integers (in the spirit of integral LLL: de Weger 1987; Cohen Alg. 2.6.7)
and the target once by its common denominator q, so every bound test is an
exact integer comparison at the common scale S q^2; no Fraction is built
per node and floats never enter. A node budget caps the tree walk and
raising BudgetExceeded is the only way a search gives up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm

from . import linalg
from .errors import BudgetExceeded, CertificationFailed, NotInSpan, RankTooLarge, SingularMatrix
from .lattice import Lattice, per_lattice
from .linalg import Mat, Vec, _round_half_even, _scaled, as_mat, as_vec
from .reduction import DEFAULT_DELTA, _lll_rows
from .rng import SplitMix64

DEFAULT_NODE_BUDGET = 10_000_000


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
    # integers: e[i] is the lcm of the denominators of column i of mu,
    # M[j][i] = mu[j][i] e[i] for i <= j, S the least common multiple of
    # e[i]^2 den(gamma[i]) and w[i] = gamma[i] S / e[i]^2
    e: tuple[int, ...]
    M: tuple[tuple[int, ...], ...]
    S: int
    w: tuple[int, ...]
    # sum(gamma) / 4: no target lies farther than this from Babai's
    # nearest-plane point, which is the scan's first leaf (Babai 1986)
    plane_sq: Fraction


@per_lattice
def _prep(L: Lattice) -> _Prep:
    rows, U, gamma, mu = _lll_rows(L.basis, DEFAULT_DELTA)
    m = len(rows)
    e = tuple(lcm(*(mu[j][i].denominator for j in range(i + 1, m))) for i in range(m))
    M = tuple(tuple(mu[j][i].numerator * (e[i] // mu[j][i].denominator) for i in range(j))
              + (e[j],) for j in range(m))
    S = lcm(*(ei * ei * g.denominator for ei, g in zip(e, gamma)))
    w = tuple(g.numerator * (S // (ei * ei * g.denominator)) for ei, g in zip(e, gamma))
    return _Prep(rows=rows, transform=U, e=e, M=M, S=S, w=w, plane_sq=sum(gamma) / 4)


def _se_scan(prep: _Prep, t: Vec, bound: list[Fraction], on_leaf, budget: _Budget) -> None:
    """DFS over integer combinations c of the working rows, pruning exactly on
    sum_i (c_i - center_i)^2 gamma_i > bound[0]. The bound may shrink inside
    on_leaf; ties at the bound are still visited.

    With t = T / q, center_i = Cn_i / (q e_i) for the integer
    Cn_i = T_i e_i + sum_{j>i} (T_j - c_j q) M[j][i], and each term times
    S q^2 is the integer (c_i q e_i - Cn_i)^2 w_i: an integer sum exceeds
    bound[0] S q^2 iff it exceeds its floor."""
    e, M, w = prep.e, prep.M, prep.w
    m = len(e)
    T, q = _scaled(t)
    scale = prep.S * q * q
    lim = [bound[0].numerator * scale // bound[0].denominator]
    c = [0] * m

    def descend(i: int, partial: int, ci: int, contrib: int):
        c[i] = ci
        if i == 0:
            on_leaf(tuple(c), Fraction(partial + contrib, scale))
            lim[0] = bound[0].numerator * scale // bound[0].denominator
        else:
            level(i - 1, partial + contrib)

    def level(i: int, partial: int):
        qe, wi = q * e[i], w[i]
        Cn = T[i] * e[i]
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
    U = prep.transform
    m = len(U)
    return tuple(sum(c_work[i] * U[i][j] for i in range(m)) for j in range(m))


def _canonical_sign(coords: tuple[int, ...]) -> tuple[int, ...]:
    lead = next((a for a in coords if a), 0)
    return tuple(-a for a in coords) if lead < 0 else coords


def list_vectors(L: Lattice, radius_sq, node_budget: int = DEFAULT_NODE_BUDGET) -> ShortVectorList:
    """All nonzero lattice vectors with norm_sq <= radius_sq, up to sign.

    Coordinates refer to the stored basis, sign-normalized so the first
    nonzero coordinate is positive.
    """
    radius_sq = linalg.as_rational(radius_sq)
    prep = _prep(L)
    t = linalg.zeros(L.rank)
    seen: dict[tuple[int, ...], Fraction] = {}

    def on_leaf(c_work: tuple[int, ...], nsq: Fraction):
        if not any(c_work):
            return
        seen[_canonical_sign(_to_stored(prep, c_work))] = nsq

    _se_scan(prep, t, [radius_sq], on_leaf, _Budget(node_budget, "list_vectors", L.rank, radius_sq))
    ordered = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    return ShortVectorList(radius_sq=radius_sq, vectors=tuple(ordered))


def shortest_vector(L: Lattice, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[tuple[int, ...], Fraction]:
    """A shortest nonzero vector as (coords, norm_sq); ties resolved to the
    lexicographically smallest sign-canonical coordinate vector."""
    start = min(linalg.norm_sq(r) for r in _prep(L).rows)
    return list_vectors(L, start, node_budget=node_budget).vectors[0]


@per_lattice
def successive_minima(L: Lattice, node_budget: int = DEFAULT_NODE_BUDGET) -> SuccessiveMinima:
    """All rank many successive minima, with rank-increasing witnesses; kept on L."""
    radius_sq = max(linalg.norm_sq(r) for r in _prep(L).rows)
    minima: list[Fraction] = []
    achieving: list[tuple[int, ...]] = []
    # the basis rows are independent, so vectors are independent iff their coordinates are
    for coords, nsq in list_vectors(L, radius_sq, node_budget=node_budget).vectors:
        if linalg.rank(as_mat(achieving + [coords])) > len(achieving):
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
    prep = _prep(L)
    t = linalg.rowspace_coefficients(prep.rows, x)
    extra = Fraction(0)
    if t is None:
        if not project:
            raise NotInSpan("target is outside span(L)")
        x_in = linalg.project_onto_rowspace(L.basis, x)
        extra = linalg.norm_sq(linalg.vsub(x, x_in))
        t = linalg.rowspace_coefficients(prep.rows, x_in)
        if t is None:
            raise CertificationFailed("the projection of the target is outside span(L)")
    bound = [prep.plane_sq]
    best: list = [prep.plane_sq, []]

    def on_leaf(c_work: tuple[int, ...], dsq: Fraction):
        if dsq < best[0]:
            best[0] = dsq
            best[1] = [c_work]
            bound[0] = dsq
        elif dsq == best[0]:
            best[1].append(c_work)

    _se_scan(prep, t, bound, on_leaf, _Budget(node_budget, "closest_vector", L.rank, prep.plane_sq))
    coords = min(_to_stored(prep, c) for c in best[1])
    point = linalg.vec_mat(as_vec(coords), L.basis)
    return NearResult(point=point, coords=coords, dist_sq=best[0] + extra)


def _covering_upper_sq(L: Lattice, node_budget: int) -> Fraction:
    """min(m^2/4 * lambda_m^2, sum of |b*_i|^2 / 4): two upper bounds on mu(L)^2."""
    lam_m_sq = successive_minima(L, node_budget=node_budget).minima_sq[-1]
    return min(Fraction(L.rank ** 2, 4) * lam_m_sq, _prep(L).plane_sq)


@per_lattice
def _voronoi_vertex_data(L: Lattice, node_budget: int) -> tuple[tuple[Vec, ...], Fraction, Vec]:
    """Vertices of the Voronoi cell of the origin (ambient coordinates),
    the exact squared covering radius, and the witness vertex. Kept on L, so
    every probe level and covering radius of one run shares one cell."""
    m = L.rank
    if m > 3:
        raise RankTooLarge(f"exact covering radius capped at rank 3, got {m}")
    G = L.gram_matrix
    mu_ub_sq = _covering_upper_sq(L, node_budget)
    # v is relevant iff +-v are the only shortest vectors of the coset v + 2L
    # (Voronoi 1908; Conway-Sloane 1982), as |v/2 - p|^2 = |v - 2p|^2 / 4.
    # The listing holds every coset minimum: some p lies within mu of c/2,
    # so |c - 2p| <= 2 mu. It is sorted by norm, one vector of each +-pair.
    classes: dict[tuple[int, ...], list] = {}  # parity class -> its vectors of least norm
    for c, nsq in list_vectors(L, 4 * mu_ub_sq, node_budget=node_budget).vectors:
        least = classes.setdefault(tuple(a % 2 for a in c), [])
        if not least or least[0][1] == nsq:
            least.append((c, nsq))
    # the facet |a . xi| <= h of each relevant c, with a = G c and h = c G c^T / 2
    facets = [(linalg.mat_vec(G, as_vec(c)), nsq / 2)
              for parity, least in classes.items() if any(parity) and len(least) == 1
              for c, nsq in least]
    signs = tuple(product((1, -1), repeat=m))
    vertices: set[Vec] = set()
    for subset in combinations(facets, m):
        rhs = tuple(tuple(s[i] * h for s in signs) for i, (_, h) in enumerate(subset))
        try:
            X = linalg.solve_matrix(tuple(a for a, _ in subset), rhs)
        except SingularMatrix:
            continue
        vertices.update(xi for xi in zip(*X) if all(abs(linalg.dot(xi, a)) <= h for a, h in facets))
    if not vertices:
        raise CertificationFailed("the Voronoi cell has no vertices")
    verts = sorted(vertices)
    verts_ambient = tuple(linalg.vec_mat(xi, L.basis) for xi in verts)
    # deepest hole: the longest vertex, ties to the greatest ambient vector
    best_sq, witness = max((linalg.dot(xi, linalg.mat_vec(G, xi)), v)
                           for xi, v in zip(verts, verts_ambient))
    return verts_ambient, best_sq, witness


def covering_radius(L: Lattice, mode: str = "exact", seed: int = 0, restarts: int = 16,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> CoveringRadiusBounds:
    """Covering radius of L within its span, squared.

    mode="exact" (rank <= 3): the exact maximum over Voronoi cell vertices,
    lower_sq == upper_sq, witness is a deepest hole. mode="heuristic": any
    rank; lower_sq comes from seeded multistart ascent of the distance
    function (each evaluation an exact CVP), upper_sq from analytic bounds.
    """
    m = L.rank
    if mode == "exact":
        _, mu_sq, witness = _voronoi_vertex_data(L, node_budget)
        check = closest_vector(L, witness, node_budget=node_budget)
        if check.dist_sq != mu_sq:
            raise CertificationFailed(f"deepest-hole witness lies at distance^2 {check.dist_sq}, "
                                      f"not at the vertex norm {mu_sq}")
        return CoveringRadiusBounds(lower_sq=mu_sq, upper_sq=mu_sq, exact=True, witness=witness)
    if mode != "heuristic":
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")

    upper_sq = _covering_upper_sq(L, node_budget)
    rng = SplitMix64(seed)
    half = Fraction(1, 2)
    starts = [tuple(half for _ in range(m))]
    starts += [tuple(half if i == j else Fraction(0) for j in range(m)) for i in range(m)]
    starts += [tuple(rng.fraction() for _ in range(m)) for _ in range(restarts)]
    best = (Fraction(0), linalg.zeros(L.ambient_dim))

    def dist_sq_at(tcoords: Vec) -> Fraction:
        pt = linalg.vec_mat(tcoords, L.basis)
        return closest_vector(L, pt, node_budget=node_budget).dist_sq

    for t0 in starts:
        t = t0
        f = dist_sq_at(t)
        step = Fraction(1, 4)
        while step >= Fraction(1, 64):
            moved = False
            for i in range(m):
                for sgn in (1, -1):
                    cand = tuple(a + sgn * step if j == i else a for j, a in enumerate(t))
                    fc = dist_sq_at(cand)
                    if fc > f:
                        t, f, moved = cand, fc, True
            if not moved:
                step /= 2
        if f > best[0]:
            best = (f, linalg.vec_mat(t, L.basis))
    return CoveringRadiusBounds(lower_sq=best[0], upper_sq=upper_sq, exact=False, witness=best[1])

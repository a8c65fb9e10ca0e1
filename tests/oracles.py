"""Brute-force reference implementations for cross-checking the elimination
kernel, enumeration, LLL and the probe.

Everything here trades speed for obviousness: coordinate boxes derived from
the Cauchy-Schwarz bound |c_i| <= ||v|| ||w_i|| (w_i the dual rows) are
scanned exhaustively, with no pruning and no recursion; the Fraction
elimination, the ambient Fraction Gram-Schmidt, the Fraction
Schnorr-Euchner scan, the CVP, the Minkowski reduction, the LLL and the
probe are earlier, slower versions kept as exact references.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd
from operator import mul

from latstab import CertificationFailed, DependentRows, Lattice, SingularMatrix, dual
from latstab import linalg
from latstab.enumeration import (DEFAULT_NODE_BUDGET, NearResult, _Budget, _deep_holes, _prep,
                                 _se_scan, _to_stored, closest_vector, list_vectors,
                                 successive_minima)
from latstab.lattice import dist_to_integers
from latstab.linalg import Vec, as_mat, as_vec
from latstab.reduction import (MINKOWSKI_MAX_RANK, ReducedBasis, _ambient_canonical,
                               _primitive_coords)
from latstab.rng import SplitMix64
from latstab.stability import HALF, THIRD, Violation, almost_near_linear


def reference_eliminate(rows: list[list[Fraction]], ncols: int) -> tuple[list[int], Fraction]:
    """Gauss-Jordan elimination over Fractions in place, pivoting on the
    first ncols columns: row i ends with a 1 in column pivots[i] and every
    other row a 0 there. Returns the pivot columns and the signed product of
    the pivots, the determinant when the first ncols columns form a
    nonsingular square."""
    pivots: list[int] = []
    signed = Fraction(1)
    for j in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            signed = -signed
        row = rows[r]
        signed *= row[j]
        # entries left of column j are zero in every row not yet pivoted on
        inv = 1 / row[j]
        row[j:] = [a * inv for a in row[j:]]
        for i, other in enumerate(rows):
            c = other[j]
            if c and i != r:
                other[j:] = [a - c * b for a, b in zip(other[j:], row[j:])]
        pivots.append(j)
    return pivots, signed


def reference_rank(M) -> int:
    return len(reference_eliminate([list(r) for r in M], len(M[0]) if M else 0)[0])


def reference_det(M) -> Fraction:
    m = len(M)
    pivots, d = reference_eliminate([list(r) for r in M], m)
    return d if len(pivots) == m else Fraction(0)


def reference_solve_matrix(M, R):
    m = len(M)
    rows = [list(a) + list(r) for a, r in zip(M, R)]
    if len(reference_eliminate(rows, m)[0]) < m:
        raise SingularMatrix("the matrix is singular")
    return tuple(tuple(row[m:]) for row in rows)


def reference_almost_near_linear(A, b, x) -> Vec:
    """The solution of A y = b nearest to x by its formula,
    y = x - A^T (A A^T)^-1 (A x - b), the solve by Fraction elimination."""
    A, b, x = as_mat(A), as_vec(b), as_vec(x)
    G = [[sum(p * q for p, q in zip(u, v)) for v in A] for u in A]
    r = [(sum(p * q for p, q in zip(u, x)) - bi,) for u, bi in zip(A, b)]
    s = [row[0] for row in reference_solve_matrix(G, r)]
    return tuple(xj - sum(si * u[j] for si, u in zip(s, A)) for j, xj in enumerate(x))


def reference_rowspace_coefficients(B, x):
    k = len(B)
    rows = [[*col, xj] for col, xj in zip(zip(*B), x)]
    if len(reference_eliminate(rows, k)[0]) < k:
        raise DependentRows("coordinates need independent rows")
    if any(row[k] for row in rows[k:]):
        return None
    return tuple(row[k] for row in rows[:k])


def reference_null_space(M):
    rows = [list(r) for r in M]
    n = len(rows[0]) if rows else 0
    pivots, _ = reference_eliminate(rows, n)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def _canonical_sign(coords):
    for a in coords:
        if a:
            return coords if a > 0 else tuple(-c for c in coords)
    return coords


def box_vectors(L: Lattice, radius_sq: Fraction):
    """All (coords, norm_sq) with 0 < norm_sq <= radius_sq, one per +-pair,
    sorted by (norm_sq, coords)."""
    W = dual(L).basis
    spans = [linalg.floor_sqrt(radius_sq * linalg.norm_sq(w)) for w in W]
    found = {}
    for c in product(*[range(-s, s + 1) for s in spans]):
        if not any(c):
            continue
        nsq = linalg.norm_sq(linalg.vec_mat(linalg.as_vec(c), L.basis))
        if nsq <= radius_sq:
            found[_canonical_sign(c)] = nsq
    return sorted(found.items(), key=lambda p: (p[1], p[0]))


def box_closest(L: Lattice, x):
    """Exact minimum distance squared to L and every optimal coordinate
    vector, by scanning a box around the coordinate-wise rounding."""
    x = linalg.as_vec(x)
    t = linalg.rowspace_coefficients(L.basis, x)
    if t is None:
        raise ValueError("oracle targets must lie in span(L)")
    g = [round(a) for a in t]
    y0 = linalg.vec_mat(linalg.as_vec(g), L.basis)
    bound = linalg.norm_sq(linalg.vsub(x, y0))
    W = dual(L).basis
    spans = [linalg.floor_sqrt(bound * linalg.norm_sq(w)) + 1 for w in W]
    best = bound
    ties = []
    for off in product(*[range(-s, s + 1) for s in spans]):
        c = tuple(gi + oi for gi, oi in zip(g, off))
        d = linalg.norm_sq(linalg.vsub(x, linalg.vec_mat(linalg.as_vec(c), L.basis)))
        if d < best:
            best, ties = d, [c]
        elif d == best:
            ties.append(c)
    return best, sorted(ties)


def box_minima(L: Lattice):
    """Successive minima squared via the box scan and greedy rank growth."""
    m = L.rank
    radius = min(linalg.norm_sq(row) for row in L.basis)
    while True:
        chosen: list[tuple[int, ...]] = []
        mins = []
        for c, nsq in box_vectors(L, radius):
            if linalg.rank(linalg.as_mat(chosen + [c])) == len(chosen) + 1:
                chosen.append(c)
                mins.append(nsq)
                if len(chosen) == m:
                    return tuple(mins)
        radius *= 4


def reference_primitive_coords(C) -> bool:
    """The integer rows extend to a unimodular matrix: full rank and the gcd
    of all maximal minors is 1 (all Smith invariants are 1)."""
    k = len(C)
    if k == 0:
        return True
    M = as_mat(C)
    if linalg.rank(M) != k:
        return False
    g = 0
    for cols in combinations(range(len(C[0])), k):
        g = gcd(g, int(linalg.det(as_mat(tuple(tuple(row[c] for c in cols) for row in M)))))
    return g == 1


def reference_gram_schmidt(B):
    """Gram-Schmidt on the ambient rows in Fractions: (B*, mu) with B = mu B*
    and mu unit lower triangular. Raises DependentRows when some
    orthogonalized row vanishes."""
    bstar, gamma = [], []
    mu = [[Fraction(int(i == j)) for j in range(len(B))] for i in range(len(B))]
    for i, b in enumerate(B):
        w = b
        for j in range(i):
            mu[i][j] = linalg.dot(b, bstar[j]) / gamma[j]
            w = linalg.vsub(w, linalg.vscale(mu[i][j], bstar[j]))
        g = linalg.norm_sq(w)
        if g == 0:
            raise DependentRows(f"row {i} is in the span of the previous rows")
        bstar.append(w)
        gamma.append(g)
    return tuple(bstar), tuple(tuple(r) for r in mu)


def gs_fractions(d, lam, D):
    """(gamma, mu) of the integer Gram-Schmidt data (d, lam, D) of
    linalg.gram_schmidt: gamma_k = d[k+1] / (d[k] D^2) and the unit lower
    triangular mu_kj = lam[k][j] / d[j+1]."""
    gamma = tuple(Fraction(b, a * D * D) for a, b in zip(d, d[1:]))
    mu = tuple(tuple(Fraction(v, d[j + 1]) if j < k else Fraction(int(j == k))
                     for j, v in enumerate(lk)) for k, lk in enumerate(lam))
    return gamma, mu


def reference_se_scan(prep, scaled, lim: list[int], on_leaf, budget: _Budget) -> None:
    """enumeration._se_scan in Fractions: the same nodes, ticks, visit order
    and ties, with every center and every partial sum a Fraction built per
    node, and each level ended at its first candidate past the limit. It
    takes the target scaled as _se_scan does, (T, q), and works on t = T / q;
    it takes the integer limit lim[0] at the scan's scale S q^2 and passes
    each leaf's distance at that scale, and converts both to Fractions inside
    itself. gamma and mu come from a fresh Gram-Schmidt of the working rows,
    independent of LLL's incremental updates."""
    T, q = scaled
    scale = prep.S * q * q
    t = [Fraction(a, q) for a in T]
    bstar, mu = reference_gram_schmidt(prep.rows)
    gamma = [linalg.norm_sq(b) for b in bstar]
    m = len(gamma)
    c = [0] * m

    def level(i: int, partial: Fraction):
        center = t[i]
        for j in range(i + 1, m):
            center += (t[j] - c[j]) * mu[j][i]
        up = round(center)
        dn = up - 1
        while True:
            budget.tick()
            if (up - center) ** 2 <= (dn - center) ** 2:
                c[i], up = up, up + 1
            else:
                c[i], dn = dn, dn - 1
            dist = partial + (c[i] - center) ** 2 * gamma[i]
            if dist > Fraction(lim[0], scale):
                return
            if i:
                level(i - 1, dist)
            else:
                N = dist * scale
                if N.denominator != 1:
                    raise ValueError(f"distance^2 {dist} is not at the scale {scale}")
                on_leaf(tuple(c), N.numerator)

    level(m - 1, Fraction(0))


def babai_rounding_sq(prep, t: Vec) -> Fraction:
    """Squared distance from the working coordinates t to their rounding."""
    diff = linalg.vsub(linalg.vec_mat(tuple(Fraction(round(a)) for a in t), prep.rows),
                       linalg.vec_mat(t, prep.rows))
    return linalg.norm_sq(diff)


def reference_closest_vector(L: Lattice, x) -> NearResult:
    """closest_vector as it was before the nearest-plane start, for x in
    span(L): the Fraction scan seeded with babai_rounding_sq, the bound
    shrinking to each better leaf, and the least stored-coordinate vector
    among the nearest leaves."""
    prep = _prep(L)
    t = linalg.rowspace_coefficients(prep.rows, as_vec(x))
    start = babai_rounding_sq(prep, t)
    T, q = linalg._scaled(t)
    scale = prep.S * q * q
    lim = [start.numerator * scale // start.denominator]
    best = [lim[0], []]

    def on_leaf(c, N):
        if N < best[0]:
            best[0], best[1], lim[0] = N, [c], N
        elif N == best[0]:
            best[1].append(c)

    reference_se_scan(prep, (T, q), lim, on_leaf,
                      _Budget(10_000_000, "closest_vector", L.rank, start))
    coords = min(_to_stored(prep, c) for c in best[1])
    return NearResult(point=linalg.vec_mat(as_vec(coords), L.basis), coords=coords,
                      dist_sq=Fraction(best[0], scale))


def reference_minkowski_reduce(L: Lattice, node_budget: int = 10_000_000) -> ReducedBasis:
    """minkowski_reduce as it was before one listing served every row: a
    fresh listing per row from the longest LLL row, the radius quadrupled
    until some listed vector keeps the prefix primitive."""
    radius_sq = max(linalg.norm_sq(r) for r in _prep(L).rows)
    rows, chosen = [], []
    for _ in range(L.rank):
        r = radius_sq
        while True:
            ranked = []
            for coords, nsq in list_vectors(L, r, node_budget=node_budget).vectors:
                vec = linalg.vec_mat(as_vec(coords), L.basis)
                vec, coords = _ambient_canonical(vec, coords)
                ranked.append((nsq, tuple(-a for a in vec), vec, coords))
            pick = next(((vec, c) for _, _, vec, c in sorted(ranked)
                         if _primitive_coords(chosen + [c])), None)
            if pick is not None:
                break
            r *= 4
        rows.append(pick[0])
        chosen.append(pick[1])
    return ReducedBasis(basis=tuple(rows), kind="minkowski",
                        norms_sq=tuple(linalg.norm_sq(v) for v in rows))


def _points_within(L: Lattice, x: Vec, radius_sq: Fraction, node_budget: int):
    """All lattice points within radius of x (x in span(L)), as stored-basis
    coordinates with exact squared distances."""
    prep = _prep(L)
    t = linalg.rowspace_coefficients(prep.rows, x)
    T, q = linalg._scaled(t)
    scale = prep.S * q * q
    out = []
    _se_scan(prep, (T, q), [radius_sq.numerator * scale // radius_sq.denominator],
             lambda c, N: out.append((_to_stored(prep, c), Fraction(N, scale))),
             _Budget(node_budget, "_points_within", L.rank, radius_sq))
    return out


def _is_voronoi_relevant(L: Lattice, coords, node_budget: int) -> bool:
    """Conway-Sloane test: v is relevant iff the only lattice points nearest
    to v/2 are 0 and v."""
    half = linalg.vscale(Fraction(1, 2), linalg.vec_mat(as_vec(coords), L.basis))
    bound = linalg.norm_sq(half)
    pts = _points_within(L, half, bound, node_budget)
    if min(d for _, d in pts) < bound:
        return False
    tied = [c for c, d in pts if d == bound]
    return sorted(tied) == sorted([tuple([0] * L.rank), coords])


def reference_voronoi_vertex_data(L: Lattice, node_budget: int = 10_000_000):
    """The Voronoi cell as first built: one nearest-point search per listed
    vector to decide its relevance, then one solve per m-subset of the 2R
    signed half-spaces. Returns (the vertices' coordinates as pairs (X, q)
    in lowest terms, mu^2, deepest hole) with the same order and tie-break
    as enumeration._voronoi_vertex_data."""
    m = L.rank
    G = L.gram_matrix
    mins = successive_minima(L, node_budget=node_budget)
    gamma = [linalg.norm_sq(b) for b in reference_gram_schmidt(_prep(L).rows)[0]]
    mu_ub_sq = min(Fraction(m * m, 4) * mins.minima_sq[-1], Fraction(1, 4) * sum(gamma))
    candidates = list_vectors(L, 4 * mu_ub_sq, node_budget=node_budget)
    constraints = []
    for c, _ in candidates.vectors:
        if _is_voronoi_relevant(L, c, node_budget):
            a = linalg.mat_vec(G, as_vec(c))
            rhs = linalg.dot(as_vec(c), a) / 2
            constraints += [(a, rhs), (tuple(-e for e in a), rhs)]
    vertices = set()
    for subset in combinations(constraints, m):
        try:
            xi = linalg.solve(as_mat([a for a, _ in subset]), as_vec([h for _, h in subset]))
        except SingularMatrix:
            continue
        if all(linalg.dot(xi, a) <= h for a, h in constraints):
            vertices.add(xi)
    best_sq, witness = Fraction(-1), ()
    for xi in sorted(vertices):
        vsq = linalg.dot(xi, linalg.mat_vec(G, xi))
        x = linalg.vec_mat(xi, L.basis)
        if vsq > best_sq or (vsq == best_sq and (not witness or x > witness)):
            best_sq, witness = vsq, x
    return tuple(linalg._scaled(xi) for xi in sorted(vertices)), best_sq, witness


def reference_cut(cell: list, A: tuple[int, ...], h: int) -> list:
    """enumeration._cut with the combinatorial edge test it replaced: outside p
    and inside r span an edge iff no third vertex of the cell is tight on every
    face both are tight on (Fukuda-Prodon 1996). The result must be identical,
    tight sets and order included."""
    neg = tuple(-a for a in A)
    vals = [(2 * sum(map(mul, A, X)), h * q) for X, q, _ in cell]
    outer = [(p, ax - hq) for p, (ax, hq) in zip(cell, vals) if ax > hq]
    inner = [(r, ax - hq) for r, (ax, hq) in zip(cell, vals) if ax < hq]
    new = []
    for (p, gp), (r, gr) in product(outer, inner):
        common = p[2] & r[2]
        if not any(common <= v[2] for v in cell if v is not p and v is not r):
            new.append((*linalg._lowest([gp * y - gr * x for x, y in zip(p[0], r[0])],
                                        gp * r[1] - gr * p[1]), common | {A}))
    cell = [(X, q, tight | {A} if ax == hq else tight | {neg} if ax == -hq else tight)
            for (X, q, tight), (ax, hq) in zip(cell, vals) if abs(ax) <= hq]
    cell += new + [(tuple(-x for x in X), q, frozenset(tuple(-a for a in b) for b in tight))
                   for X, q, tight in new]
    return cell


def cell_vertices(L: Lattice, pairs) -> tuple[Vec, ...]:
    """The ambient vertices x = (X / q) B of a cell given as pairs (X, q)."""
    return tuple(linalg.vec_mat(tuple(Fraction(a, q) for a in X), L.basis) for X, q in pairs)


def reference_lll_rows(rows, delta):
    """LLL that recomputes the whole Gram-Schmidt decomposition after every
    size-reduction step, every exchange test and every swap. Returns the
    reduced rows and the unimodular U with reduced = U * original; the
    incremental LLL must make exactly the same moves."""
    m = len(rows)
    b = list(rows)
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    _, mu = reference_gram_schmidt(tuple(b))
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = linalg.vsub(b[k], linalg.vscale(q, b[j]))
                U[k] = [a - q * c for a, c in zip(U[k], U[j])]
                _, mu = reference_gram_schmidt(tuple(b))
        gamma = [linalg.norm_sq(w) for w in reference_gram_schmidt(tuple(b))[0]]
        if gamma[k] >= (delta - mu[k][k - 1] ** 2) * gamma[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            U[k], U[k - 1] = U[k - 1], U[k]
            _, mu = reference_gram_schmidt(tuple(b))
            k = max(k - 1, 1)
    return tuple(b), tuple(tuple(r) for r in U)


def lll_violations(B, delta=Fraction(3, 4)):
    """Every failed textbook LLL condition of the rows B: |mu_ij| <= 1/2 for
    j < i, and Lovasz gamma_i >= (delta - mu_{i,i-1}^2) gamma_{i-1}."""
    bstar, mu = reference_gram_schmidt(B)
    gamma = [linalg.norm_sq(w) for w in bstar]
    bad = []
    for i in range(len(B)):
        bad += [f"|mu[{i}][{j}]| > 1/2" for j in range(i) if abs(mu[i][j]) > Fraction(1, 2)]
        if i and gamma[i] < (delta - mu[i][i - 1] ** 2) * gamma[i - 1]:
            bad.append(f"Lovasz fails at row {i}")
    return bad


def same_lattice(B1, B2) -> bool:
    """Each basis has integer coordinates in the other."""
    if len(B1) != len(B2):
        return False
    for P, Q in ((B1, B2), (B2, B1)):
        for row in Q:
            c = linalg.rowspace_coefficients(P, row)
            if c is None or any(a.denominator != 1 for a in c):
                return False
    return True


def reference_violations(C, Bx: Vec, delta: Fraction) -> tuple[Violation, ...]:
    """The hypothesis in plain Fractions: the rows c of C whose s = c.Bx lies
    farther than delta from every integer, dist_to_integers(s) > delta."""
    products = ((c, sum(map(mul, c, Bx))) for c in C)
    return tuple(Violation(coords=c, inner_product=s, dist_to_int=dist_to_integers(s))
                 for c, s in products if dist_to_integers(s) > delta)


def reference_probe_worst_distance(L: Lattice, delta, radius_sq, *, seed: int = 0,
                                   restarts: int = 32, node_budget: int = DEFAULT_NODE_BUDGET,
                                   max_iters: int = 200, extra_starts=(), _constraints=None):
    """probe_worst_distance with every slab test an ambient Fraction dot
    product and every independence test a full rank: the same starts, moves
    and tie-breaks, so the result must be identical. An ascent visits at most
    max_iters points, the probe's ASCENT_CAP."""
    delta = linalg.as_rational(delta)
    radius_sq = linalg.as_rational(radius_sq)
    if not 0 <= delta < THIRD:
        raise ValueError(f"delta must be in [0, 1/3), got {delta}")
    Ld = dual(L)
    W = Ld.basis
    m, n = L.rank, L.ambient_dim
    if _constraints is None:
        reps = list_vectors(L, radius_sq, node_budget=node_budget).vectors
        U = [linalg.vec_mat(as_vec(c), L.basis) for c, _ in reps]
    else:
        U = _constraints

    def feasible(x: Vec) -> bool:
        return all(dist_to_integers(linalg.dot(u, x)) <= delta for u in U)

    def repair(x: Vec) -> Vec | None:
        for _ in range(4):
            rows: list[Vec] = []
            targets: list[Fraction] = []
            clean = True
            for u in U:
                val = linalg.dot(u, x)
                k = round(val)
                if abs(val - k) <= delta:
                    continue
                clean = False
                if len(rows) == n:
                    continue
                cand = rows + [u]
                if linalg.rank(as_mat(cand)) == len(cand):
                    rows.append(u)
                    targets.append(k - delta if val < k else k + delta)
            if clean:
                return x
            if not rows:
                return None
            x = almost_near_linear(as_mat(rows), as_vec(targets), x)
        return x if feasible(x) else None

    def push(x: Vec, d: Vec) -> list[Vec]:
        """Candidate points farther from the current nearest dual vector,
        staying inside the current branch slabs."""
        limit: Fraction | None = None
        for u in U:
            a = linalg.dot(u, d)
            if a == 0:
                continue
            val = linalg.dot(u, x)
            k = round(val)
            lim = (k + delta - val) / a if a > 0 else (k - delta - val) / a
            limit = lim if limit is None else min(limit, lim)
        if limit is None:
            return [linalg.vadd(x, linalg.vscale(Fraction(2) ** j, d)) for j in range(6)]
        if limit <= 0:
            return []
        return [linalg.vadd(x, linalg.vscale(limit, d)),
                linalg.vadd(x, linalg.vscale(limit / 2, d))]

    def local_max(x0: Vec) -> tuple[Fraction, Vec] | None:
        x = repair(x0)
        if x is None:
            return None
        best: tuple[Fraction, Vec] | None = None
        for _ in range(max_iters):
            near = closest_vector(Ld, x, node_budget=node_budget)
            f = near.dist_sq
            if best is not None and f <= best[0]:
                break
            best = (f, x)
            d = linalg.vsub(x, near.point)
            if not any(d):
                break
            stepped = None
            for cand in push(x, d):
                fc = closest_vector(Ld, cand, node_budget=node_budget).dist_sq
                if fc > f and (stepped is None or fc > stepped[0]):
                    stepped = (fc, cand)
            if stepped is None:
                break
            x = stepped[1]
        return best

    # the dual's holes (the cell's vertices up to the rank cap, the covering
    # ascent's end points above it) come from the probe's own source
    starts: list[Vec] = [linalg.zeros(n)]
    starts += cell_vertices(Ld, _deep_holes(Ld, node_budget)[0])
    masks = range(1, 2**m) if m <= MINKOWSKI_MAX_RANK else [1 << i for i in range(m)] + [2**m - 1]
    for mask in masks:
        sel = as_vec([HALF if mask >> i & 1 else 0 for i in range(m)])
        starts.append(linalg.vec_mat(sel, W))
    starts += [as_vec(s) for s in extra_starts]
    rng = SplitMix64(seed)
    for _ in range(restarts):
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
    if not feasible(best[1]):
        raise CertificationFailed(f"the probe witness violates the hypothesis at "
                                  f"radius^2 {radius_sq}")
    return best

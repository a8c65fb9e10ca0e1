"""Brute-force reference implementations for cross-checking enumeration.

Everything here trades speed for obviousness: coordinate boxes derived from
the Cauchy-Schwarz bound |c_i| <= ||v|| ||w_i|| (w_i the dual rows) are
scanned exhaustively, with no pruning and no recursion.
"""

from fractions import Fraction
from itertools import product

from latstab import Lattice, dual
from latstab import linalg


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
    assert t is not None, "oracle targets must lie in span(L)"
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


def reference_lll_rows(rows, delta):
    """LLL that recomputes the whole Gram-Schmidt decomposition after every
    size-reduction step, every exchange test and every swap. Returns the
    reduced rows and the unimodular U with reduced = U * original; the
    incremental LLL must make exactly the same moves."""
    m = len(rows)
    b = list(rows)
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    _, mu = linalg.gram_schmidt(tuple(b))
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = linalg.vsub(b[k], linalg.vscale(q, b[j]))
                U[k] = [a - q * c for a, c in zip(U[k], U[j])]
                _, mu = linalg.gram_schmidt(tuple(b))
        gamma = [linalg.norm_sq(w) for w in linalg.gram_schmidt(tuple(b))[0]]
        if gamma[k] >= (delta - mu[k][k - 1] ** 2) * gamma[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            U[k], U[k - 1] = U[k - 1], U[k]
            _, mu = linalg.gram_schmidt(tuple(b))
            k = max(k - 1, 1)
    return tuple(b), tuple(tuple(r) for r in U)


def lll_violations(B, delta=Fraction(3, 4)):
    """Every failed textbook LLL condition of the rows B: |mu_ij| <= 1/2 for
    j < i, and Lovasz gamma_i >= (delta - mu_{i,i-1}^2) gamma_{i-1}."""
    bstar, mu = linalg.gram_schmidt(B)
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

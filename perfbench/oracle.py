"""Exact reference arithmetic for the benchmark's output checks.

Nothing here imports latstab: every check the benchmark makes is computed
from the input basis with plain Fractions and integers, by methods chosen
for obviousness (Gauss-Jordan elimination, textbook Gram-Schmidt and LLL,
coordinate box scans) rather than speed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt

F = Fraction


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), 0)


def vec_mat(c, B):
    n = len(B[0])
    return tuple(sum((ci * row[j] for ci, row in zip(c, B) if ci), 0) for j in range(n))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def gram(B):
    return tuple(tuple(dot(u, v) for v in B) for u in B)


def _eliminate(rows, ncols):
    """Reduced row echelon form in place; returns the pivot columns."""
    pivots = []
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F(1) / rows[r][j]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                c = rows[i][j]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(rows) -> int:
    rows = [[F(a) for a in r] for r in rows]
    return len(_eliminate(rows, len(rows[0]))) if rows else 0


def inverse(M):
    m = len(M)
    aug = [[F(a) for a in row] + [F(int(i == j)) for j in range(m)] for i, row in enumerate(M)]
    if len(_eliminate(aug, m)) != m or any(aug[i][i] != 1 for i in range(m)):
        raise ValueError("singular matrix")
    return tuple(tuple(row[m:]) for row in aug)


def det(M):
    rows = [[F(a) for a in r] for r in M]
    m = len(rows)
    out = F(1)
    for j in range(m):
        piv = next((i for i in range(j, m) if rows[i][j]), None)
        if piv is None:
            return F(0)
        if piv != j:
            rows[j], rows[piv] = rows[piv], rows[j]
            out = -out
        out *= rows[j][j]
        for i in range(j + 1, m):
            if rows[i][j]:
                c = rows[i][j] / rows[j][j]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[j])]
    return out


def dual_basis(B):
    """Rows of gram(B)^-1 B: the basis of the dual lattice biorthogonal to B."""
    Gi = inverse(gram(B))
    return tuple(vec_mat(row, B) for row in Gi)


def coordinates(B, x):
    """Rational c with c B = x, or None when x is outside the row space."""
    Gi = inverse(gram(B))
    c = tuple(dot(row, tuple(dot(b, x) for b in B)) for row in Gi)
    return c if vec_mat(c, B) == tuple(x) else None


def same_lattice(B1, B2) -> bool:
    """Each basis has integer coordinates in the other."""
    if len(B1) != len(B2):
        return False
    for P, Q in ((B1, B2), (B2, B1)):
        for row in Q:
            c = coordinates(P, row)
            if c is None or any(F(a).denominator != 1 for a in c):
                return False
    return True


def gram_schmidt(B):
    """Squared Gram-Schmidt norms and the mu matrix, recomputed from scratch."""
    bstar, gamma = [], []
    mu = [[F(0)] * len(B) for _ in B]
    for i, b in enumerate(B):
        w = tuple(F(a) for a in b)
        for j in range(i):
            mu[i][j] = dot(b, bstar[j]) / gamma[j]
            w = sub(w, tuple(mu[i][j] * a for a in bstar[j]))
        bstar.append(w)
        gamma.append(dot(w, w))
    return gamma, mu


def lll_violations(B, delta=F(3, 4)) -> list[str]:
    """Every failed size-reduction or Lovasz condition of B."""
    gamma, mu = gram_schmidt(B)
    bad = []
    if any(g == 0 for g in gamma):
        return ["rows are dependent"]
    for i in range(len(B)):
        for j in range(i):
            if abs(mu[i][j]) > F(1, 2):
                bad.append(f"|mu[{i}][{j}]| = {abs(mu[i][j])} > 1/2")
        if i and gamma[i] < (delta - mu[i][i - 1] ** 2) * gamma[i - 1]:
            bad.append(f"Lovasz condition fails at row {i}")
    return bad


def lll(B, delta=F(3, 4)):
    """Textbook LLL with exact incremental Gram-Schmidt updates (Cohen,
    Alg. 2.6.3). Returns the reduced basis and the number of Gram-Schmidt
    computations an implementation makes when it recomputes the
    orthogonalization after every size-reduction step, every exchange test
    and every swap, plus two at the start: the work count of latstab's LLL,
    used to pick inputs of similar cost."""
    b = [tuple(map(F, r)) for r in B]
    m = len(b)
    gamma, mu = gram_schmidt(b)
    calls, k = 2, 1
    while k < m:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                calls += 1
                b[k] = tuple(x - q * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        calls += 1
        if gamma[k] >= (delta - mu[k][k - 1] ** 2) * gamma[k - 1]:
            k += 1
            continue
        calls += 1
        u = mu[k][k - 1]
        big = gamma[k] + u * u * gamma[k - 1]
        mu[k][k - 1] = u * gamma[k - 1] / big
        gamma[k] = gamma[k - 1] * gamma[k] / big
        gamma[k - 1] = big
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        for i in range(k + 1, m):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - u * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return tuple(b), calls


def floor_sqrt(x) -> int:
    x = F(x)
    return isqrt(x.numerator * x.denominator) // x.denominator


def _canonical(v):
    lead = next((a for a in v if a), 0)
    return tuple(-a for a in v) if lead < 0 else tuple(v)


def box_vectors(B, radius_sq):
    """Every nonzero lattice vector with norm_sq <= radius_sq, one per
    +-pair, as (vector, norm_sq) sorted by norm then vector. Scans the box
    |c_i| <= ||w_i|| * radius over coordinates in a reduced basis, where the
    w_i are its dual rows (Cauchy-Schwarz)."""
    R = lll(B)[0]
    G = [[int(g) if F(g).denominator == 1 else g for g in row] for row in gram(R)]
    spans = [floor_sqrt(radius_sq * dot(w, w)) for w in dual_basis(R)]
    found = {}
    for c in product(*[range(-s, s + 1) for s in spans]):
        if not any(c):
            continue
        nsq = sum(ci * cj * G[i][j] for i, ci in enumerate(c) if ci
                  for j, cj in enumerate(c) if cj)
        if nsq <= radius_sq:
            found[_canonical(vec_mat(c, R))] = nsq
    return sorted(((v, q) for v, q in found.items()), key=lambda p: (p[1], p[0]))


def nearest_dist_sq(B, x):
    """Exact squared distance from x (in the span of B) to the lattice of B,
    by a box scan around the rounded coordinates in a reduced basis."""
    R = lll(B)[0]
    t = coordinates(R, x)
    if t is None:
        raise ValueError("target outside the span of the lattice")
    g = [round(a) for a in t]
    best = _dist_sq(R, x, g)
    spans = [floor_sqrt(best * dot(w, w)) + 1 for w in dual_basis(R)]
    for off in product(*[range(-s, s + 1) for s in spans]):
        d = _dist_sq(R, x, [gi + oi for gi, oi in zip(g, off)])
        if d < best:
            best = d
    return best


def _dist_sq(R, x, c):
    r = sub(x, vec_mat(c, R))
    return dot(r, r)


def minima(B):
    """Successive minima squared, with independent achieving vectors, from
    box scans of growing radius."""
    m = len(B)
    radius = min(dot(r, r) for r in B)
    while True:
        chosen, mins = [], []
        for v, nsq in box_vectors(B, radius):
            if rank(chosen + [v]) > len(chosen):
                chosen.append(v)
                mins.append(nsq)
                if len(chosen) == m:
                    return tuple(mins), tuple(chosen)
        radius *= 4


def dist_to_int(a):
    a = F(a)
    frac = a - (a.numerator // a.denominator)
    return min(frac, 1 - frac)


def ceil_sqrt(x) -> int:
    t = floor_sqrt(x)
    return t if t * t >= x else t + 1


def babai_rounding_dist_sq(B, x):
    """Distance to the lattice point obtained by rounding x's coordinates."""
    c = coordinates(B, x)
    return _dist_sq(B, x, [round(a) for a in c])


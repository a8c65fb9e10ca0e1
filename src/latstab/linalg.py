"""Exact linear algebra over rationals.

Vectors are tuples of ``Fraction``; matrices are tuples of row vectors.
Everything is a value: operations return new tuples and never mutate.
Squared euclidean norms stay rational, so all comparisons here are exact;
nothing in this module touches floats. Every solve, rank, determinant and
kernel goes through one fraction-free elimination on integer rows: the
caller clears denominators, the kernel works on integers only, and the
results become ``Fraction``s again at the interface.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import DependentRows, DimensionMismatch, SingularMatrix

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def as_rational(x: int | str | Fraction) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def as_vec(entries: Iterable[int | str | Fraction]) -> Vec:
    return tuple(as_rational(x) for x in entries)


def as_mat(rows: Iterable[Iterable[int | str | Fraction]]) -> Mat:
    out = tuple(as_vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot product of vectors with {len(u)} and {len(v)} entries")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def norm_sq(v: Vec) -> Fraction:
    return dot(v, v)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction | int, v: Vec) -> Vec:
    c = as_rational(c)
    return tuple(c * a for a in v)


def identity(m: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(m)) for i in range(m))


def mat_vec(M: Mat, x: Vec) -> Vec:
    """M applied to the column vector x: entry i is row_i . x."""
    return tuple(dot(row, x) for row in M)


def vec_mat(x: Vec, M: Mat) -> Vec:
    """Row vector times matrix: the combination sum_i x_i * row_i."""
    if len(x) != len(M):
        raise DimensionMismatch(f"{len(x)} coefficients for a matrix with {len(M)} rows")
    n = len(M[0]) if M else 0
    out = list(zeros(n))
    for c, row in zip(x, M):
        if c:
            for j, a in enumerate(row):
                out[j] += c * a
    return tuple(out)


def mat_mul(A: Mat, B: Mat) -> Mat:
    return tuple(vec_mat(row, B) for row in A)


def gram(B: Mat) -> Mat:
    """Matrix of pairwise inner products of the rows of B."""
    return tuple(tuple(dot(u, v) for v in B) for u in B)


def _eliminate(rows: list[Sequence[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) in place on a
    list of integer rows, pivoting on the first ncols columns.

    At pivot p every other row becomes (p * row - c * pivot_row) // d, c its
    entry in the pivot column and d the previous pivot (1 at first). Every
    entry stays a minor of the input, so each division is exact; a pivot row
    that moves is negated, which keeps the minors' signs. Afterwards row i
    holds d in column pivots[i] and 0 in the other pivot columns, rows past
    len(pivots) are zero in the first ncols columns, and columns beyond ncols
    carry the same row operations: the reduced row echelon form is rows / d.
    Returns the pivot columns and d, the determinant when the first ncols
    columns form a nonsingular square.
    """
    pivots: list[int] = []
    d = 1
    for j in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = [-a for a in rows[piv]], rows[r]
        row = rows[r]
        p = row[j]
        for i, other in enumerate(rows):
            if i != r:
                c = other[j]
                rows[i] = [(p * a - c * b) // d for a, b in zip(other, row)]
        d = p
        pivots.append(j)
    return pivots, d


def _square(M: Mat) -> int:
    m = len(M)
    if any(len(r) != m for r in M):
        raise DimensionMismatch(f"need a square matrix, got {m} rows of lengths "
                                f"{sorted({len(r) for r in M})}")
    return m


def rank(M: Mat) -> int:
    return len(_eliminate(list(clear_denominators(M)[0]), len(M[0]) if M else 0)[0])


def det(M: Mat) -> Fraction:
    m = _square(M)
    scaled, D = clear_denominators(M)
    pivots, d = _eliminate(list(scaled), m)
    return Fraction(d, D ** m) if len(pivots) == m else Fraction(0)


def solve_matrix(M: Mat, R: Mat) -> Mat:
    """The matrix X with M X = R for square M; raises SingularMatrix."""
    m = _square(M)
    if len(R) != m:
        raise DimensionMismatch(f"right-hand side has {len(R)} rows, matrix has {m}")
    rows = list(clear_denominators([(*a, *r) for a, r in zip(M, R)])[0])
    pivots, d = _eliminate(rows, m)
    if len(pivots) < m:
        raise SingularMatrix("the matrix is singular")
    return tuple(tuple(Fraction(a, d) for a in row[m:]) for row in rows)


def invert(M: Mat) -> Mat:
    """Exact inverse of a square matrix; raises SingularMatrix if none exists."""
    return solve_matrix(M, identity(len(M)))


def solve(M: Mat, b: Vec) -> Vec:
    """Solution x of the square system M x = b; raises SingularMatrix."""
    return tuple(r[0] for r in solve_matrix(M, tuple((a,) for a in b)))


def gram_schmidt(B: Mat) -> tuple[list[int], list[list[int]], int]:
    """(d, lam, D): the Gram-Schmidt data of B in integers, from the integer
    Gram matrix of Bz = D B, D the least integer clearing B's denominators,
    by the fraction-free recurrence (Cohen, Alg. 2.6.7), each division exact.
    d[0] = 1 and d[k+1] is the Gram determinant of rows 0..k of Bz;
    lam[k][j] = d[j+1] mu_kj for j <= k, so lam[k][k] = d[k+1], and
    gamma_k = |b*_k|^2 = d[k+1] / (d[k] D^2); LLL updates the fresh lists in
    place. Raises DependentRows when some orthogonalized row vanishes."""
    Bz, D = clear_denominators(B)
    d = [1]
    lam = [[0] * len(Bz) for _ in Bz]
    for k, lk in enumerate(lam):
        for j in range(k + 1):
            u = sum(a * b for a, b in zip(Bz[k], Bz[j]))
            for i in range(j):
                u = (d[i + 1] * u - lk[i] * lam[j][i]) // d[i]
            lk[j] = u
        if not lk[k]:
            raise DependentRows(f"row {k} is in the span of the previous rows")
        d.append(lk[k])
    return d, lam, D


def project_onto_rowspace(B: Mat, x: Vec) -> Vec:
    """Orthogonal projection of x onto the row space of B (rows independent)."""
    try:
        coeff = solve(gram(B), mat_vec(B, x))
    except SingularMatrix:
        raise DependentRows("projection needs independent rows") from None
    return vec_mat(coeff, B)


def rowspace_coefficients(B: Mat, x: Vec) -> Vec | None:
    """Coefficients c with c B = x, or None when x is outside the row space.

    B must have independent rows; the returned c is unique. One elimination
    of [B^T | x] decides both.
    """
    k, n = len(B), len(B[0])
    if len(x) != n:
        raise DimensionMismatch(f"vector has {len(x)} entries, the rows have {n}")
    rows = list(clear_denominators([(*col, xj) for col, xj in zip(zip(*B), x)])[0])
    pivots, d = _eliminate(rows, k)
    if len(pivots) < k:
        raise DependentRows("coordinates need independent rows")
    if any(row[k] for row in rows[k:]):
        return None
    return tuple(Fraction(row[k], d) for row in rows[:k])


def null_space(M: Mat) -> Mat:
    """Rows spanning the solution space of M x = 0 (one row per free column)."""
    rows = list(clear_denominators(M)[0])
    n = len(M[0]) if M else 0
    pivots, d = _eliminate(rows, n)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = Fraction(-rows[i][f], d)
        basis.append(tuple(v))
    return tuple(basis)


def hnf(M: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form of an integer matrix.

    Canonical for the row lattice: pivots are positive and leftmost, entries
    above each pivot are reduced into [0, pivot), zero rows sink to the bottom.
    The shape of the input is preserved.
    """
    H = [[int(a) for a in row] for row in M]
    m = len(H)
    n = len(H[0]) if m else 0
    r = 0
    for j in range(n):
        if r == m:
            break
        if not any(H[i][j] for i in range(r, m)):
            continue
        while True:
            nz = [i for i in range(r, m) if H[i][j]]
            i0 = min(nz, key=lambda i: (abs(H[i][j]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
            if H[r][j] < 0:
                H[r] = [-a for a in H[r]]
            pivot = H[r][j]
            clean = True
            for i in range(r + 1, m):
                if H[i][j]:
                    q = H[i][j] // pivot
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    if H[i][j]:
                        clean = False
            if clean:
                break
        pivot = H[r][j]
        for i in range(r):
            q = H[i][j] // pivot
            if q:
                H[i] = [a - q * b for a, b in zip(H[i], H[r])]
        r += 1
    return tuple(tuple(row) for row in H)


def clear_denominators(M: Mat) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Smallest positive integer D with D*M integral, plus that integer matrix."""
    D = lcm(*(a.denominator for row in M for a in row))
    scaled = tuple(tuple(a.numerator * (D // a.denominator) for a in row) for row in M)
    return scaled, D


def _round_half_even(N: int, Q: int) -> int:
    """round(Fraction(N, Q)) for Q > 0, ties to even, without the Fraction."""
    k, r = divmod(N, Q)
    if 2 * r > Q or (2 * r == Q and k % 2):
        k += 1
    return k


def _scaled(x: Vec) -> tuple[tuple[int, ...], int]:
    """(X, q) with x = X / q in lowest terms: q is the lcm of the denominators of x."""
    q = lcm(*(a.denominator for a in x))
    return tuple(a.numerator * (q // a.denominator) for a in x), q


def _lowest(Y: Sequence[int], p: int) -> tuple[tuple[int, ...], int]:
    """The integer vector Y over p > 0 as the pair (X, q) in lowest terms."""
    g = gcd(*Y, p)
    return tuple(a // g for a in Y), p // g


def floor_sqrt(x: Fraction) -> int:
    """Largest integer t >= 0 with t*t <= x (x >= 0)."""
    if x < 0:
        raise ValueError(f"square root of a negative number {x}")
    return isqrt(x.numerator * x.denominator) // x.denominator


def ceil_sqrt(x: Fraction) -> int:
    """Smallest integer t >= 0 with t*t >= x (x >= 0)."""
    t = floor_sqrt(x)
    return t if t * t >= x else t + 1

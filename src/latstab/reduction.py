"""Exact basis reduction.

LLL runs on integers (integral LLL: de Weger 1987; Cohen, Alg. 2.6.7) and
decides its size-reduction and exchange conditions exactly, so reducing
an already reduced basis is a literal no-op. It acts on the unimodular
transform alone, with the integer Gram-Schmidt data (d, lam) updated in
place, and forms the reduced rows once, in integers. Minkowski reduction
is the greedy scheme: each step takes a shortest lattice vector that keeps
the chosen prefix extendable to a basis. It is exact but enumerative,
hence capped at rank 4, where one listing holds every row.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from . import linalg
from .errors import CertificationFailed, NotInLattice, NotPrimitive, RankTooLarge
from .lattice import Lattice, integral_coordinates, record
from .linalg import Mat, Vec, _round_half_even, as_mat, as_vec

DEFAULT_DELTA = Fraction(3, 4)
MINKOWSKI_MAX_RANK = 4


@record
class ReducedBasis:
    basis: Mat  # a basis of the input lattice
    kind: str  # "lll" or "minkowski"
    norms_sq: tuple[Fraction, ...]
    parameter: Fraction | None = None


def _lll_rows(rows: Mat, delta: Fraction) -> tuple[Mat, tuple[tuple[int, ...], ...],
                                                   list[int], list[list[int]], int]:
    """LLL-reduce rows. Returns the reduced rows, formed once at the end as
    U * original in integers, the unimodular coordinate rows U, and the
    integer Gram-Schmidt data (d, lam, D) of the reduced rows, as
    linalg.gram_schmidt gives it.

    Gram-Schmidt is computed once; size reduction and swaps then update only
    U, d and lam, in integers and in place, each division exact (integral
    LLL: Cohen, Alg. 2.6.7), so every rounding and exchange decision sees
    what a full recomputation would give."""
    m = len(rows)
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    d, lam, D = linalg.gram_schmidt(rows)
    dn, dd = delta.numerator, delta.denominator
    k = 1
    while k < m:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_half_even(lk[j], d[j + 1])  # round(mu_kj)
            if q:
                U[k] = [a - q * c for a, c in zip(U[k], U[j])]
                lk[:j + 1] = [a - q * c for a, c in zip(lk, lam[j][:j + 1])]
        u = lk[k - 1]
        # Lovasz gamma_k >= (delta - mu^2) gamma_{k-1}, times d[k] d[k-1] D^2 dd
        if dd * (d[k + 1] * d[k - 1] + u * u) >= dn * d[k] * d[k]:
            k += 1
            continue
        # exchange rows k-1 and k: lam[k][k-1] stays u, and the Gram
        # determinant of the new rows 0..k-1 is big
        big = (d[k - 1] * d[k + 1] + u * u) // d[k]
        U[k], U[k - 1] = U[k - 1], U[k]
        lk[:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lk[:k - 1]
        for li in lam[k + 1:]:
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - u * t) // d[k]
            li[k - 1] = (big * t + u * li[k]) // d[k + 1]
        d[k] = lam[k - 1][k - 1] = big
        k = max(k - 1, 1)
    Bz = linalg.clear_denominators(rows)[0]
    reduced = tuple(tuple(Fraction(sum(map(mul, c, col)), D) for col in zip(*Bz)) for c in U)
    return reduced, tuple(map(tuple, U)), d, lam, D


def lll(L: Lattice, delta: Fraction | str | int = DEFAULT_DELTA) -> ReducedBasis:
    """LLL-reduced basis of L with exchange parameter delta in (1/4, 1)."""
    delta = linalg.as_rational(delta)
    if not Fraction(1, 4) < delta < 1:
        raise ValueError(f"LLL parameter must be in (1/4, 1), got {delta}")
    rows = _lll_rows(L.basis, delta)[0]
    return ReducedBasis(
        basis=rows,
        kind="lll",
        norms_sq=tuple(linalg.norm_sq(r) for r in rows),
        parameter=delta,
    )


def _primitive_coords(C: list[tuple[int, ...]]) -> bool:
    """True when the integer rows extend to a unimodular matrix, that is when
    their columns generate Z^k: the Hermite form of the columns starts with I_k."""
    return linalg.hnf(tuple(zip(*C)))[:len(C)] == linalg.identity(len(C))


def is_primitive_system(L: Lattice, vectors) -> bool:
    """Whether the given lattice vectors extend to a basis of L."""
    coords = []
    for v in vectors:
        c = integral_coordinates(L, as_vec(v))
        if c is None:
            raise NotInLattice(f"{tuple(v)} is not a lattice vector")
        coords.append(c)
    return _primitive_coords(coords)


def _ambient_canonical(vec: Vec, coords: tuple[int, ...]) -> tuple[Vec, tuple[int, ...]]:
    """Flip sign so the first nonzero ambient entry is positive."""
    lead = next((a for a in vec if a), None)
    if lead is not None and lead < 0:
        return tuple(-a for a in vec), tuple(-c for c in coords)
    return vec, coords


def minkowski_reduce(L: Lattice, node_budget: int | None = None) -> ReducedBasis:
    """Greedy Minkowski reduction; exact, available up to rank MINKOWSKI_MAX_RANK.

    Row k is a shortest vector keeping rows 1..k primitive; ties go to the
    lexicographically greatest sign-canonical ambient vector. Up to rank 4
    the row norms are the successive minima (van der Waerden 1956), so the
    listing of successive_minima holds every row, and one walk of it in
    rank order finds them all: a vector that breaks a prefix breaks every
    longer prefix, since a subset of a primitive system is primitive."""
    from .enumeration import DEFAULT_NODE_BUDGET, _minima_listing

    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    if L.rank > MINKOWSKI_MAX_RANK:
        raise RankTooLarge(f"Minkowski reduction capped at rank {MINKOWSKI_MAX_RANK}, got {L.rank}")
    ranked = []
    for coords, nsq in _minima_listing(L, budget).vectors:
        vec, coords = _ambient_canonical(linalg.vec_mat(as_vec(coords), L.basis), coords)
        ranked.append((nsq, tuple(-a for a in vec), vec, coords))
    rows: list[Vec] = []
    chosen: list[tuple[int, ...]] = []
    for _, _, vec, coords in sorted(ranked):
        if _primitive_coords(chosen + [coords]):
            rows.append(vec)
            chosen.append(coords)
            if len(rows) == L.rank:
                break
    if len(rows) != L.rank:
        raise CertificationFailed(f"the listing up to the longest LLL row holds "
                                  f"{len(rows)} Minkowski rows, not {L.rank}")
    return ReducedBasis(
        basis=tuple(rows),
        kind="minkowski",
        norms_sq=tuple(linalg.norm_sq(r) for r in rows),
    )


def extend_to_basis(L: Lattice, partial) -> Mat:
    """Complete a primitive system to a basis of L.

    Each appended vector minimizes the distance to the span of the vectors
    before it (ties: smallest norm, then greatest sign-canonical vector),
    which is exactly what keeps the system extendable at every step.
    """
    from .enumeration import DEFAULT_NODE_BUDGET, list_vectors

    current = [as_vec(v) for v in partial]
    if not is_primitive_system(L, current):
        raise NotPrimitive("partial system does not extend to a basis")
    coords = [integral_coordinates(L, v) for v in current]
    while len(current) < L.rank:
        span = as_mat(current)
        outside = []
        for row in L.basis:
            res = row if not span else linalg.vsub(row, linalg.project_onto_rowspace(span, row))
            if any(res):
                outside.append(linalg.norm_sq(res))
        d_ub = min(outside)
        sum_cur = sum((linalg.norm_sq(v) for v in current), Fraction(0))
        radius_sq = (len(current) + 1) * (sum_cur + d_ub)
        best = None
        for c, nsq in list_vectors(L, radius_sq, node_budget=DEFAULT_NODE_BUDGET).vectors:
            vec = linalg.vec_mat(as_vec(c), L.basis)
            res = vec if not span else linalg.vsub(vec, linalg.project_onto_rowspace(span, vec))
            dist_sq = linalg.norm_sq(res)
            if dist_sq == 0:
                continue
            vec, c = _ambient_canonical(vec, c)
            key = (dist_sq, nsq, tuple(-a for a in vec))
            if best is None or key < best[0]:
                best = (key, vec, c)
        if best is None:
            raise CertificationFailed("no lattice vector found off the span of the partial system")
        current.append(best[1])
        coords.append(best[2])
        if not _primitive_coords(coords):
            raise CertificationFailed("the extended system is not primitive")
    return tuple(current)

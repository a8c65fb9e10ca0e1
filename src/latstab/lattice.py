"""Lattices with rational bases, their duals, and integral annihilators.

A lattice is the set of integer combinations of independent rational rows.
The dual consists of the vectors inside the same rational span whose inner
product with every lattice vector is an integer; it is computed exactly as
the solution W of gram(B) W = B, which makes taking the dual twice
literally the identity on basis matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, wraps
from math import floor

from . import linalg
from .errors import DependentRows, NotInSpan
from .linalg import Mat, Vec, as_mat, as_vec


def dist_to_integers(a: Fraction | int | str) -> Fraction:
    """Distance from a rational to the nearest integer; always in [0, 1/2]."""
    a = linalg.as_rational(a)
    frac = a - floor(a)
    return min(frac, 1 - frac)


def per_lattice(build):
    """Run build(L, ...) once per Lattice object and keep the result in that
    object's __dict__, as cached_property keeps gram_matrix. A stored result is
    returned whatever budget a later call passes; a build that raises stores nothing."""
    key = f"{build.__module__}.{build.__qualname__}"

    @wraps(build)
    def stored(L: Lattice, *args, **kwargs):
        if key not in L.__dict__:
            L.__dict__[key] = build(L, *args, **kwargs)
        return L.__dict__[key]
    return stored


def record(cls):
    """Make cls a frozen record of the fields its annotations declare, in order,
    with defaults from class attributes, as dataclass(frozen=True) would: built by
    position or keyword, then __post_init__ if cls has one; == and hash by the
    tuple of fields within one class; repr Name(f=..., g=...); assignment and
    deletion raise AttributeError. The __dict__ stays for cached_property and
    per_lattice. Plain closures: the dataclass module would cost every command
    its import of inspect and ast and an exec per method."""
    names = tuple(cls.__annotations__)
    known = frozenset(names)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def fields(self):
        return tuple([getattr(self, n) for n in names])

    def __init__(self, *args, **kwargs):
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or values.keys() != known
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{cls.__name__}() takes each of {', '.join(names)} once, "
                            "by position or keyword")
        for n in names:  # one at a time, as dataclass does, so instances share their keys
            object.__setattr__(self, n, values[n])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        return fields(self) == fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


@record
class Lattice:
    """Integer row span of a full-row-rank rational basis matrix."""

    basis: Mat

    def __post_init__(self):
        object.__setattr__(self, "basis", as_mat(self.basis))
        if not self.basis or not self.basis[0]:
            raise ValueError("a lattice needs at least one nonzero basis row")
        if linalg.rank(self.basis) != len(self.basis):
            raise DependentRows("basis rows must be independent; use from_generators")

    @property
    def ambient_dim(self) -> int:
        return len(self.basis[0])

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def gram_matrix(self) -> Mat:
        return linalg.gram(self.basis)

    @staticmethod
    def from_generators(rows) -> "Lattice":
        """Lattice generated by possibly dependent rational rows."""
        M = as_mat(rows)
        scaled, D = linalg.clear_denominators(M)
        reduced = [r for r in linalg.hnf(scaled) if any(r)]
        if not reduced:
            raise ValueError("generators span the zero lattice")
        return Lattice(tuple(tuple(Fraction(a, D) for a in row) for row in reduced))


@per_lattice
def dual(L: Lattice) -> Lattice:
    """Dual lattice inside span(L): the rows W with gram(B) W = B, biorthogonal to B.
    Kept on L (not L on it, so dual(dual(L)) is computed afresh)."""
    return Lattice(linalg.solve_matrix(L.gram_matrix, L.basis))


def double_dual_check(L: Lattice) -> bool:
    """Exact involution check: the dual of the dual has L's own basis matrix."""
    return dual(dual(L)).basis == L.basis


@record
class AnnihilatorRep:
    """Integral annihilator of a lattice, split along span(L).

    The annihilator is the set of x whose inner product with every lattice
    vector is an integer; it decomposes as dual(L) plus the orthogonal
    complement of span(L), and is a lattice exactly when the complement is
    trivial. ``ortho_complement`` rows span that complement (empty at full
    rank), so rank(dual) + rows = ambient dimension.
    """

    lattice_basis: Mat
    dual: Lattice
    ortho_complement: Mat

    @property
    def is_lattice(self) -> bool:
        return not self.ortho_complement

    def contains(self, x) -> bool:
        """Membership test: B x must be an integer vector."""
        x = as_vec(x)
        return all(t.denominator == 1 for t in linalg.mat_vec(self.lattice_basis, x))


def annihilator(L: Lattice) -> AnnihilatorRep:
    return AnnihilatorRep(
        lattice_basis=L.basis,
        dual=dual(L),
        ortho_complement=linalg.null_space(L.basis),
    )


def dual_coordinates(L: Lattice, x) -> Vec:
    """Inner products of x (required to lie in span(L)) with the basis rows.

    These are the coefficients of x in the dual basis, so rounding them
    coordinate-wise is the canonical way to land in the dual lattice.
    """
    x = as_vec(x)
    if linalg.rowspace_coefficients(L.basis, x) is None:
        raise NotInSpan("vector is outside the rational span of the lattice")
    return linalg.mat_vec(L.basis, x)


def integral_coordinates(L: Lattice, x) -> tuple[int, ...] | None:
    """Integer coefficients of x in the basis, or None when x is not in L."""
    c = linalg.rowspace_coefficients(L.basis, as_vec(x))
    if c is None or any(a.denominator != 1 for a in c):
        return None
    return tuple(int(a) for a in c)


def is_member(L: Lattice, x) -> bool:
    return integral_coordinates(L, x) is not None


def equal_lattices(L1: Lattice, L2: Lattice) -> bool:
    """Exact set equality via canonical Hermite forms of rescaled bases."""
    if L1.ambient_dim != L2.ambient_dim or L1.rank != L2.rank:
        return False
    scaled, _ = linalg.clear_denominators(L1.basis + L2.basis)
    return linalg.hnf(scaled[:L1.rank]) == linalg.hnf(scaled[L1.rank:])

"""Plain-text lattice format: a header line "n m", then m basis rows.

Rows hold n whitespace-separated rationals, "p/q" or "p" in the ASCII digits
0-9 (no other syntax is accepted). A '#' starts a comment that runs to the
end of the line; blank lines are ignored. Serialization round-trips exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .lattice import Lattice
from .linalg import Vec

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?\Z")


def parse_rational(token: str, line: int | None = None, column: int | None = None) -> Fraction:
    if not _RATIONAL.match(token):
        raise ParseError(f"not a rational token: {token!r}", line, column)
    return Fraction(token)


def _tokens(text: str):
    """Yield (line_no, column, token) with comments stripped, 1-based positions."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        for match in re.finditer(r"\S+", body):
            yield line_no, match.start() + 1, match.group()


def parse_vector(text: str) -> Vec:
    return tuple(parse_rational(tok, line, col) for line, col, tok in _tokens(text))


def parse_lattice_text(text: str) -> Lattice:
    stream = list(_tokens(text))
    if len(stream) < 2:
        raise ParseError("missing 'n m' header")
    for line, col, tok in stream[:2]:
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"header needs positive integers, got {tok!r}", line, col)
    n, m = int(stream[0][2]), int(stream[1][2])
    if n < 1 or m < 1 or m > n:
        raise ParseError(f"bad dimensions n={n} m={m}", stream[0][0])
    body = stream[2:]
    if len(body) != n * m:
        raise ParseError(f"expected {m} rows of {n} entries, got {len(body)} entries total")
    entries = [parse_rational(tok, line, col) for line, col, tok in body]
    basis = tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(m))
    return Lattice(basis)


def parse_lattice_file(path: str) -> Lattice:
    with open(path, encoding="utf-8") as fh:
        return parse_lattice_text(fh.read())


def serialize_lattice(L: Lattice) -> str:
    lines = [f"{L.ambient_dim} {L.rank}"]
    lines += [" ".join(str(a) for a in row) for row in L.basis]
    return "\n".join(lines) + "\n"


def write_lattice_file(path: str, L: Lattice) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_lattice(L))

"""Exception taxonomy shared by every module in the package."""


class LatticeError(Exception):
    """Base class for all package-specific failures."""


class SingularMatrix(LatticeError):
    """A square system had no unique solution."""


class DependentRows(LatticeError):
    """An operation required linearly independent rows and did not get them."""


class DimensionMismatch(LatticeError):
    """Vectors or matrices of incompatible shapes were combined."""


class NotInSpan(LatticeError):
    """A vector was required to lie in the rational span of a basis."""


class NotInLattice(LatticeError):
    """A vector was required to be an integer combination of a basis."""


class NotPrimitive(LatticeError):
    """A system of lattice vectors does not extend to a basis."""


class RankTooLarge(LatticeError):
    """The requested exact algorithm is only available below a rank cap."""


class BudgetExceeded(LatticeError):
    """An enumeration visited more nodes than its budget allows."""

    def __init__(self, budget: int, search: str = "enumeration"):
        super().__init__(f"{search} exceeded node budget {budget}")
        self.budget = budget


class CertificationFailed(LatticeError):
    """An exact check of a computed result (witness, solution, identity) failed."""


class GenerationFailed(LatticeError):
    """Rejection sampling gave up before producing a full-rank matrix."""


class ParseError(LatticeError):
    """Malformed lattice file or rational token."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)
        self.line = line
        self.column = column

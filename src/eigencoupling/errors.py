"""Exception types shared across the package: one per exit code of the CLI,
which each names in ``exit_code``, and two of exit 1 that callers tell
apart, ``DimensionError`` (also a ValueError) and ``FamilyParseError`` (with
its JSON path)."""


class EigenCouplingError(Exception):
    """Base class for all package-specific errors (exit 1): also raised
    itself, e.g. for a command line the CLI refuses, when the eigensolver
    does not converge, a local model is degenerate, or a loop is sampled too
    coarsely to track its pair."""

    exit_code = 1


class DimensionError(EigenCouplingError, ValueError):
    """Vector/matrix shapes are incompatible or not square."""


class DomainError(EigenCouplingError):
    """Parameter point outside the validity domain of a matrix family."""

    exit_code = 3


class FamilyParseError(EigenCouplingError, ValueError):
    """Family JSON document violates the schema.

    Carries the JSON path of the offending element in ``path``.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class ClassificationError(EigenCouplingError):
    """No usable double eigenvalue: a triple coincidence, a degeneracy kind
    that does not match the operation (EP vs DP), a chain or frame that
    cannot be built, or an undecidable rank, whose refusal alone carries the
    spectrum that triggered it in ``singular_values`` (None otherwise)."""

    exit_code = 2

    def __init__(self, message, singular_values=None):
        self.singular_values = singular_values
        super().__init__(message)


class ConvergenceError(EigenCouplingError):
    """Iteration cap exceeded, or the iterates' pair cannot be followed.
    Carries the residual history."""

    exit_code = 4

    def __init__(self, message, residual_history=None):
        self.residual_history = list(residual_history or [])
        super().__init__(message)

"""Exception types shared across the package."""


class EigenCouplingError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(EigenCouplingError, ValueError):
    """Vector/matrix shapes are incompatible or not square."""


class NumericError(EigenCouplingError, RuntimeError):
    """Backend numerical routine failed (e.g. eigensolver non-convergence)."""


class DomainError(EigenCouplingError):
    """Parameter point outside the validity domain of a matrix family."""


class FamilyParseError(EigenCouplingError, ValueError):
    """Family JSON document violates the schema.

    Carries the JSON path of the offending element in ``path``.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class MultiplicityError(EigenCouplingError):
    """Three or more eigenvalues nearly coincide; only double ones are handled."""


class ClassificationError(EigenCouplingError):
    """Degeneracy kind does not match the operation (EP vs DP), or is neither."""


class IndeterminateRankError(EigenCouplingError):
    """A singular value sits too close to the rank threshold to decide.

    ``singular_values`` holds the full spectrum that triggered the ambiguity.
    """

    def __init__(self, message, singular_values):
        self.singular_values = singular_values
        super().__init__(message)


class FrameError(EigenCouplingError):
    """Bi-orthonormal frame construction failed (singular Gram matrix etc.)."""


class TrackingError(EigenCouplingError):
    """Eigenvalue pair cannot be followed unambiguously between iterates."""


class ConvergenceError(EigenCouplingError):
    """Iteration cap exceeded. Carries the residual history."""

    def __init__(self, message, residual_history=None):
        self.residual_history = list(residual_history or [])
        super().__init__(message)


class ResolutionError(EigenCouplingError):
    """Sampled trajectory too coarse for reliable branch tracking."""


class ChartError(EigenCouplingError):
    """Requested form needs a different parameter ordering/chart."""


class BranchError(EigenCouplingError):
    """Principal-branch evaluation undefined (eigenvalue too close to zero)."""


class DegenerateModelError(EigenCouplingError):
    """Local model is degenerate for the requested construction (e.g. g = 0,
    or a numerically singular bordered matrix)."""

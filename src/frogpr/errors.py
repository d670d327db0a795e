"""Exception types shared across the library."""


class FrogprError(Exception):
    """Base class for all library-specific errors."""


class UnsupportedGeometryError(FrogprError, ValueError):
    """A geometry outside the domain FrogParams.plan_violations or recovery_violations states."""


class SingularConfigurationError(FrogprError):
    """A circle system is degenerate: collinear centers, m = 0 or v1 = v2."""


class NoSolutionError(FrogprError):
    """Two circles do not meet (the pair solve's discriminant is negative)."""


class _StageError(FrogprError):
    """A refusal that says where recovery stopped and by how much.

    stage is the tail stage k, "A1" or "verify"; residual is the misfit
    refused and tol the bound it exceeded. Each is None where it does not
    apply, for instance residual and tol for a vanishing coefficient.
    """

    def __init__(self, message: str, *, stage=None, residual=None, tol=None):
        super().__init__(message)
        self.stage = stage
        self.residual = residual
        self.tol = tol


class DegenerateSignalError(_StageError):
    """Input violates the genericity hypotheses (a needed coefficient is ~0)."""


class InconsistentMeasurementsError(_StageError):
    """Measurements admit no signal consistent within tolerance."""

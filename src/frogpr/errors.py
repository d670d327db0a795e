"""Exception types shared across the library."""


class FrogprError(Exception):
    """Base class for all library-specific errors."""


class SingularConfigurationError(FrogprError):
    """A circle system is degenerate: collinear centers, m = 0 or v1 = v2."""


class NoSolutionError(FrogprError):
    """Two circles do not meet (the pair solve's discriminant is negative)."""


class DegenerateSignalError(FrogprError):
    """Input violates the genericity hypotheses (a needed coefficient is ~0)."""


class InconsistentMeasurementsError(FrogprError):
    """Measurements admit no signal consistent within tolerance."""

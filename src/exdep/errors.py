"""Exception hierarchy shared across the package."""


class ExdepError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ExdepError, ValueError):
    """Inadmissible distribution or kernel parameters."""


class DomainError(ExdepError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class PreconditionError(ExdepError, ValueError):
    """A documented precondition of an operation is violated."""


class MgfDivergenceError(ExdepError, ArithmeticError):
    """A moment generating function required to be finite is infinite."""


class RegimeError(ExdepError):
    """Operation called outside its extremal dependence regime."""


class OracleSizeError(ExdepError, ValueError):
    """Brute-force oracle called on an instance above its size limit."""


class SingularCoefficientError(ExdepError):
    """A site coincides with a representative point of an unbounded kernel.

    Jitter the site or the cell representative to resolve.
    """


class NonnegativityError(ExdepError):
    """Computed coefficients are materially negative."""


class QuadratureError(ExdepError, ArithmeticError):
    """Adaptive quadrature reported that it did not reach its tolerance."""


class SolveError(ExdepError):
    """A sparse linear solve failed or did not reach the required residual."""


class EstimateError(ExdepError):
    """An empirical estimate is undefined for the given sample."""

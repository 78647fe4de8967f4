"""Exception and warning types shared across the package."""


class NipolyError(Exception):
    """Base class for package errors."""


class DomainError(NipolyError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class NoPathError(NipolyError):
    """Requested a partition function between endpoints with no admissible path."""


class EnumerationCapError(NipolyError):
    """Brute-force enumeration would exceed the caller-supplied cap.

    Raised instead of silently truncating the enumeration.
    """


class PrecisionLossError(NipolyError):
    """A float computation would lose too many digits to be trusted.

    Raised when a quantile table misses the exact route it interpolates, and
    when rounding the coefficients of a Toeplitz symbol could move log a on
    the unit circle beyond tolerance.
    """


class JacobiConvergenceError(NipolyError):
    """The Jacobi eigenvalue iteration failed to converge within its sweep bound."""


class ZeroOnCircleError(NipolyError):
    """A Toeplitz symbol vanishes (numerically) on the unit circle."""


class PrecisionLossWarning(UserWarning):
    """Signed log-space subtraction cancelled more than ~30 nats.

    The result is still returned; callers needing more digits may escalate
    to an extended-precision path.
    """

"""Exception and warning types shared across the package."""


class FdlinkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidAntennaCount(FdlinkError):
    """Fewer than two antennas at a node; bidirectional selection is infeasible."""


class InvalidRange(FdlinkError):
    """A scalar parameter is outside its admissible range."""


class MatrixTooSmall(FdlinkError):
    """Selection requires at least a 2x2 SINR matrix."""


class DegenerateSize(FdlinkError):
    """The optimality-gap bound needs n_a*n_b >= 3."""


class DomainError(FdlinkError):
    """Argument outside the mathematical domain of a special function."""


class RequiresPerfectCancellation(FdlinkError):
    """Asymptotics for eta=0 requested with a nonzero cancellation coefficient."""


class ConvergenceFailure(FdlinkError):
    """Adaptive quadrature did not reach the requested tolerance."""


class UnknownPreset(FdlinkError):
    """CLI preset name not recognized."""


class IoError(FdlinkError):
    """A config file could not be read, or a result file could not be written."""


class SingularTermWarning(UserWarning):
    """Kept for API compatibility; no longer raised.  A vanishing 1 - c*eta
    denominator is now evaluated through its exact limit."""


class CancellationWarning(UserWarning):
    """Kept for API compatibility; no longer raised.  Closed-form sums are
    evaluated at 50 digits and report lost digits in AnalyticValue."""

"""Exception types shared across the package."""


class LogvorError(Exception):
    """Base class for all errors raised by this package."""


class NotPD(LogvorError):
    """A matrix required to be positive definite is not."""


class ShapeMismatch(LogvorError):
    """Incompatible matrix shapes or malformed symmetric input."""


class IndexOutOfRange(LogvorError):
    """A 1-based index refers to entries outside the matrix or graph."""


class DimensionMismatch(ShapeMismatch):
    """A matrix argument has the wrong dimension."""


class InvalidModel(LogvorError):
    """A model definition violates its structural invariants."""


class SingularPoint(LogvorError):
    """Tangent data was requested at a singular point of a model."""


class OutOfRange(LogvorError):
    """A scalar parameter lies outside its admissible open interval."""


class NotTopological(LogvorError):
    """Directed edges do not respect the vertex labelling (i < j)."""


class NotChordal(LogvorError):
    """A chordal graph was required."""


class NoInteriorPoint(LogvorError):
    """No positive definite starting point was found in the span."""


class SingularParents(LogvorError):
    """A parent covariance block is numerically singular."""


class DegenerateLeadingCoefficient(LogvorError):
    """The leading coefficient of a cubic vanishes."""


class NoConvergence(LogvorError):
    """An iterative solver failed to produce a converged point."""


class NotOnSlice(LogvorError):
    """The sample does not lie on the required log-normal slice."""


class PreconditionFailed(LogvorError):
    """An argument fails the cell-membership precondition of compose/project."""


class SamplingExhausted(LogvorError):
    """Rejection sampling stalled; the proposal radius underflowed."""


class UnknownFigure(LogvorError):
    """Unrecognised figure name."""

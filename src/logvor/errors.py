"""Exception types shared across the package.

:class:`InputError` and its subclasses mean malformed input (the CLI
exits 2); any other :class:`LogvorError` is a failed computation (exit 3).
"""


def _brief(value, show=repr) -> str:
    """``show(value)``, or a stand-in naming the type of ``value`` where
    that holds an integer past Python's limit for printing one."""
    try:
        return show(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


class LogvorError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LogvorError):
    """The input is malformed, rather than a computation failing."""


class NotPD(LogvorError):
    """A matrix required to be positive definite is not."""


class ShapeMismatch(InputError):
    """Incompatible matrix shapes or malformed symmetric input."""


class IndexOutOfRange(InputError):
    """A 1-based index refers to entries outside the matrix or graph."""


class DimensionMismatch(ShapeMismatch):
    """A matrix argument has the wrong dimension."""


class InvalidModel(InputError):
    """A model definition violates its structural invariants."""


class SingularPoint(LogvorError):
    """Tangent data was requested at a singular point of a model."""


class OutOfRange(InputError):
    """A scalar parameter lies outside its admissible open interval."""


class NotTopological(InputError):
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


class NotOnSlice(InputError):
    """The sample does not lie on the required log-normal slice."""


class PreconditionFailed(InputError):
    """An argument fails the cell-membership precondition of compose/project."""


class SamplingExhausted(LogvorError):
    """Rejection sampling found no positive definite proposal."""


class UnknownFigure(InputError):
    """Unrecognised figure name."""

"""Exception types shared across the package.

:class:`InputError` and its subclasses mean malformed input (the CLI
exits 2); any other :class:`LogvorError` is a failed computation (exit 3).
"""

import math
import numbers
import operator


def _brief(value) -> str:
    """``repr(value)``, or a stand-in naming the type of ``value`` where
    that holds an integer past Python's limit for printing one."""
    try:
        return repr(value)
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


def _is_integer(x) -> bool:
    """Is ``x`` an int or a numpy integer (``operator.index``), no bool?"""
    return hasattr(type(x), "__index__") and not isinstance(x, bool)


def _integer(x, name: str, lo: int, hi=None, error=OutOfRange, say=None):
    """``x`` as an int: :class:`InvalidModel` unless :func:`_is_integer`,
    else ``error`` unless ``lo <= x <= hi`` (None: no bound), with the
    message ``say`` formatted by ``name``, ``x``, ``lo`` and ``hi``."""
    if not _is_integer(x):
        raise InvalidModel(f"{name} must be an integer, got {_brief(x)}")
    i = operator.index(x)
    if lo <= i and (hi is None or i <= hi):
        return i
    say = say or ("{name} {x} outside {lo}..{hi}" if hi is not None else
                  "{name} must be at least {lo}, got {x}" if lo else
                  "{name} must be a non-negative integer, got {x}")
    raise error(say.format(name=name, x=_brief(i), lo=lo, hi=hi))


def _positive(x, name: str) -> float:
    """``x`` as a float; :class:`OutOfRange` unless ``0 < x < inf``."""
    try:
        if not isinstance(x, bool) and 0.0 < x < math.inf:
            return float(x)
    except (TypeError, ValueError,      # a string, None, an array
            OverflowError):             # an int beyond the largest double
        pass
    raise OutOfRange(f"{name} must be positive and finite")


def _real(x, name: str) -> float:
    """``x`` as a float: :class:`InvalidModel` unless it is a real number
    (a :class:`numbers.Real`, such as an int, a float or a numpy scalar,
    but no bool), :class:`OutOfRange` if it is beyond the largest double.
    Whether it may be infinite or NaN is left to the caller."""
    # a float passes the first, fast test of the tuple
    if isinstance(x, bool) or not isinstance(x, (float, numbers.Real)):
        raise InvalidModel(f"{name} must be a real number, got {_brief(x)}")
    try:
        return float(x)
    except OverflowError:               # an int or a fraction beyond 2^1024
        raise OutOfRange(f"{name} is beyond the largest double") from None


def _members(x, name: str, what: str = "integers") -> list:
    """The items of the collection ``x``; :class:`InvalidModel` naming
    ``name`` and the ``what`` it holds unless ``x`` can be iterated over."""
    try:
        return list(x)
    except TypeError:
        raise InvalidModel(f"{name} must be a collection of {what}, got "
                           f"{_brief(x)}") from None

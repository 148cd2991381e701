import math
from numbers import Integral, Real


class InvalidInputError(ValueError):
    """A precondition on user-supplied data was violated."""


class NumericalError(RuntimeError):
    """A numerically infeasible operation (failed factorization, zero weight,
    non-monotone exact minimizer, ...)."""


def check_number(name, value, sign="positive"):
    """Raise an InvalidInputError naming ``name`` unless ``value`` is a
    finite real number of the given ``sign``: positive or nonnegative.  A
    bool is not a number here, though Python counts it as one."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    in_range = value > 0 if sign == "positive" else value >= 0
    if not (in_range and math.isfinite(value)):
        raise InvalidInputError(f"{name} must be {sign} and finite, got {value}")


def check_integer(name, value, least):
    """Raise an InvalidInputError naming ``name`` unless ``value`` is an
    integer >= least; a bool is not one."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidInputError(f"{name} must be at least {least}, got {value}")

import math


class InvalidInputError(ValueError):
    """A precondition on user-supplied data was violated."""


class NumericalError(RuntimeError):
    """A numerically infeasible operation (failed factorization, zero weight,
    non-monotone exact minimizer, ...)."""


def check_number(name, value, sign="positive"):
    """Raise an InvalidInputError naming ``name`` unless ``value`` is a
    finite number of the given ``sign``: positive, nonnegative or any."""
    in_range = {"positive": value > 0, "nonnegative": value >= 0, "any": True}[sign]
    if not (in_range and math.isfinite(value)):
        need = "finite" if sign == "any" else f"{sign} and finite"
        raise InvalidInputError(f"{name} must be {need}, got {value}")

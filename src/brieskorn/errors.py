"""Exception types shared across the package, and the integer check exact_int.

The CLI maps these onto exit codes: InputError -> 2,
ModelInconsistencyError -> 3, InternalInvariantError -> 4.
"""


class InputError(ValueError):
    """User-supplied data is malformed or out of range."""


class ModelInconsistencyError(ValueError):
    """Analytic data contradicts a constraint it is required to satisfy."""


class InternalInvariantError(RuntimeError):
    """A computed quantity violates an identity that must always hold."""


def exact_int(x):
    """x as an int if it is an integer of any numeric type (3.0, Fraction(2)
    and True pass); InputError where int(x) would truncate, as on 2.5."""
    if type(x) is int:
        return x
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError("%r is not an integer" % (x,))

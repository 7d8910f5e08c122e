"""Exception types, warning categories and the integer check shared across
the package."""

import numbers


def check_integer(field, value, low=None):
    """ValueError naming the field unless value is an integer, >= low if given.

    A float or a bool would be truncated, "p": 3.9 to p = 3, and a
    negative seed would end in numpy.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("%s must be an integer, got %r" % (field, value))
    if low is not None and value < low:
        raise ValueError("%s must be at least %d, got %r" % (field, low, value))


class DimensionMismatch(ValueError):
    """Operands do not share the same square matrix dimension."""


class ParityViolation(ValueError):
    """An element fails a required parity constraint (even/odd/selfadjoint-odd)."""


class ZeroWittenIndex(ValueError):
    """Tr(Gamma e^{-H}) is below the configured floor; the functional is not normalizable."""


class StripViolation(ValueError):
    """Complex time argument lies outside the closed strip 0 <= Im z <= 1."""


class TruncationUnreachable(RuntimeError):
    """No series order up to perturbation.SERIES_CAP meets the requested tolerance."""


class ChainBudgetExceeded(RuntimeError):
    """A chain integral would exceed the configured term budget (SKMS_CHAIN_BUDGET)."""


class ConditioningWarning(UserWarning):
    """Imaginary-time evolution amplifies entries beyond a safe dynamic range."""

"""Exception types and warning categories shared across the package."""


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

"""Verification report record shared by all checker functions."""

from dataclasses import dataclass

# Sentinel tolerance for rows that document a quantity instead of testing it.
# Finite so reports stay strict-JSON serializable.
DOCUMENTED = 1e300


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check.

    max_residual is the largest absolute deviation observed across all
    sampled instances of the identity; passed is max_residual <= tolerance.
    A check returns its rows unstamped; the workbench sets seed (the
    sampling stream) and model_digest (the generating ModelSpec), and
    wall_ms only on request, so emitted reports are reproducible byte for
    byte.
    """

    identity_name: str
    paper_anchor: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    seed: int = 0
    model_digest: str = ""
    wall_ms: float = 0.0


def make_report(identity_name, paper_anchor, samples, max_residual, tolerance):
    """Build an unstamped report row, deriving passed from residual vs tolerance."""
    residual, tol = float(max_residual), float(tolerance)
    return VerificationReport(identity_name, paper_anchor, int(samples), residual,
                              tol, residual <= tol)

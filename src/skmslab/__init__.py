"""Numerical laboratory for graded KMS functionals and entire cyclic cocycles.

Finite-dimensional graded systems (grading unitary, odd supercharge,
modular-type flow) carry a super-Gibbs functional whose simplex-ordered
heat chains assemble into an even cyclic cocycle.  The package evaluates
each chain off the top block row of one block-bidiagonal matrix
exponential, verifies the functional axioms and cocycle identities,
follows odd perturbations of the supercharge through Dyson series with
certified tails, and checks the transgression formula that makes the
cocycle homotopy invariant.
"""

from .cochain import (Cochain, boundary, connes_B, entireness_diagnostic,
                      hochschild_b, jlo_cochain, lemma34_check, tau_eval)
from .dynamics import (GradedSystem, heisenberg_flow, kms_two_point,
                       skms_eval, superderivation, verify_skms_axioms)
from .errors import (ChainBudgetExceeded, ConditioningWarning,
                     DimensionMismatch, ParityViolation, StripViolation,
                     TruncationUnreachable, ZeroWittenIndex)
from .graded import (GradingOperator, Parity, as_matrix, graded_commutator,
                     parity_split, supertrace)
from .kernels import Spectrum, chain_integral, simplex_quadrature
from .perturbation import (DysonInfo, OddPerturbation, PerturbedContext,
                           dyson_alpha, dyson_gamma_one,
                           endpoint_transgression_check, f_identities_check,
                           gamma_cocycle_oracle, homotopy_check,
                           lemma43_check, lemma44_check, lipschitz_check,
                           skms_check_perturbed,
                           tau_r_eval, transgression_cochain,
                           witten_invariance_check)
from .report import DOCUMENTED, VerificationReport, make_report

__all__ = [
    "ChainBudgetExceeded",
    "Cochain",
    "ConditioningWarning",
    "DimensionMismatch",
    "DOCUMENTED",
    "DysonInfo",
    "GradedSystem",
    "GradingOperator",
    "OddPerturbation",
    "Parity",
    "ParityViolation",
    "PerturbedContext",
    "Spectrum",
    "StripViolation",
    "TruncationUnreachable",
    "VerificationReport",
    "ZeroWittenIndex",
    "as_matrix",
    "boundary",
    "chain_integral",
    "connes_B",
    "dyson_alpha",
    "dyson_gamma_one",
    "endpoint_transgression_check",
    "entireness_diagnostic",
    "f_identities_check",
    "gamma_cocycle_oracle",
    "graded_commutator",
    "heisenberg_flow",
    "hochschild_b",
    "homotopy_check",
    "jlo_cochain",
    "kms_two_point",
    "lemma34_check",
    "lemma43_check",
    "lemma44_check",
    "lipschitz_check",
    "make_report",
    "parity_split",
    "simplex_quadrature",
    "skms_check_perturbed",
    "skms_eval",
    "superderivation",
    "supertrace",
    "tau_eval",
    "tau_r_eval",
    "transgression_cochain",
    "verify_skms_axioms",
    "witten_invariance_check",
]

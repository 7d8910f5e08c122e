"""Mutation gate: each known structural defect must turn a row of `All` red.

A suite that stays green with a defect injected cannot tell that defect
from working code (DeMillo, Lipton & Sayward, "Hints on test data
selection", 1978).  Each defect below is injected by a monkeypatch of one
module-level name, and `run_suite(spec, "All")` must then report at least
one gated row red on both reference specs.  The defect in the sign of delta
makes a_r non-selfadjoint, so the run must refuse it instead.

Red rows at the time the gate was written, RandomGraded / RectangularBlock:
G negated 2 / 2, G x 1.5 2 / 2, Gamma dropped 10 / 11, insertion order
reversed 13 / 13, last Hochschild sign flipped 5 / 5, B signs 5 / 5, Q in
place of rQ 5 / 5, H in place of H_r 5 / 5.  The gate asserts at least one.
"""

import numpy as np
import pytest

import skmslab.cochain as cochain
import skmslab.dynamics as dynamics
import skmslab.kernels as kernels
import skmslab.perturbation as perturbation
from skmslab.errors import ParityViolation
from skmslab.kernels import Spectrum
from skmslab.perturbation import PerturbedContext
from skmslab.report import DOCUMENTED
from skmslab.workbench import ModelSpec, run_suite
from skmslab.workbench.models import build_perturbed_model

REFERENCE_SPECS = (
    ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
              perturbation={"seed": 11, "scale": 0.3}),
    ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1, scale=1.0),
)


def _scaled_transgression(monkeypatch, factor):
    g_sum = perturbation._transgression_sum
    monkeypatch.setattr(perturbation, "_transgression_sum",
                        lambda ctx, stacks: factor * g_sum(ctx, stacks))


def negate_g(monkeypatch, spec):
    _scaled_transgression(monkeypatch, -1.0)


def scale_g(monkeypatch, spec):
    _scaled_transgression(monkeypatch, 1.5)


def drop_gamma(monkeypatch, spec):
    monkeypatch.setattr(kernels, "_grading_matrix", lambda grading: None)


def reverse_insertions(monkeypatch, spec):
    chain = kernels.chain_integral

    def reversed_chain(spectrum, xs, grading):
        return chain(spectrum, [xs[0], *xs[:0:-1]], grading)
    for module in (cochain, perturbation):
        monkeypatch.setattr(module, "chain_integral", reversed_chain)


def flip_last_b_sign(monkeypatch, spec):
    b_terms = cochain._b_terms

    def flipped(n, xs):
        terms = b_terms(n, xs)
        sign, args = terms[-1]
        return terms[:-1] + [(-sign, args)]
    monkeypatch.setattr(cochain, "_b_terms", flipped)


def wrong_b_signs(monkeypatch, spec):
    big_b_terms = cochain._B_terms

    def resigned(n, xs):
        return [((-1) ** ((n + 1) * j), args)
                for j, (_, args) in enumerate(big_b_terms(n, xs))]
    monkeypatch.setattr(cochain, "_B_terms", resigned)


def full_coupling_in_supercharge(monkeypatch, spec):
    init = PerturbedContext.__init__

    def unscaled(self, system, pert, r):
        init(self, system, pert, r)
        self.supercharge = np.broadcast_to(
            system.supercharge + self.perturbation.matrix, self.supercharge.shape)
    monkeypatch.setattr(PerturbedContext, "__init__", unscaled)


def unperturbed_chain_spectrum(monkeypatch, spec):
    plain = build_perturbed_model(spec, 0)[0].spectrum

    def plain_like(spectrum):
        lead = spectrum.evals.shape[:-1]
        return Spectrum(np.broadcast_to(plain.evals, lead + plain.evals.shape),
                        np.broadcast_to(plain.vecs, lead + plain.vecs.shape))

    def wrap(kernel):
        def with_h(spectrum, *args, **kwargs):
            return kernel(plain_like(spectrum), *args, **kwargs)
        return with_h
    chain = wrap(kernels.chain_integral)
    alternating = wrap(kernels.alternating_chain_integral)
    for module in (cochain, perturbation):
        monkeypatch.setattr(module, "chain_integral", chain)
    monkeypatch.setattr(perturbation, "alternating_chain_integral", alternating)


DEFECTS = {defect.__name__: defect for defect in (
    negate_g, scale_g, drop_gamma, reverse_insertions, flip_last_b_sign,
    wrong_b_signs, full_coupling_in_supercharge, unperturbed_chain_spectrum)}


def _red_rows(spec):
    return [r.identity_name for r in run_suite(spec, "All")
            if r.tolerance != DOCUMENTED and not r.passed]


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_all_is_green_without_a_defect(spec):
    assert _red_rows(spec) == []


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("defect", list(DEFECTS))
def test_defect_turns_a_row_red(monkeypatch, spec, defect):
    DEFECTS[defect](monkeypatch, spec)
    assert _red_rows(spec), "%s leaves every gated row green" % defect


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_wrong_delta_sign_is_refused(monkeypatch, spec):
    def plus_sign(sys, xs):
        g = sys.grading.matrix
        return sys.supercharge @ xs + (g @ xs @ g) @ sys.supercharge
    for module in (dynamics, cochain, perturbation):
        monkeypatch.setattr(module, "_superderivation_stack", plus_sign)
    with pytest.raises(ParityViolation, match="a_r must be selfadjoint"):
        run_suite(spec, "All")

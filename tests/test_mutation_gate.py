"""Mutation gate: each known structural defect must turn a row of `All` red.

A suite that stays green with a defect injected cannot tell that defect
from working code (DeMillo, Lipton & Sayward, "Hints on test data
selection", 1978).  Each defect below is injected by a monkeypatch of one
module-level name, and `run_suite(spec, "All")` must then report at least
one gated row red on both reference specs.  The defect in the sign of delta
makes a_r non-selfadjoint, so the run must refuse it instead.

Red rows at the time the gate was written, RandomGraded / RectangularBlock:
G negated 2 / 2, G x 1.5 2 / 2, Gamma dropped 11 / 11, insertion order
reversed 12 / 12, last Hochschild sign flipped 5 / 5, B signs 5 / 5, Q in
place of rQ 5 / 5, H in place of H_r 5 / 5, delta leaking 1e-6 x 1 / 1
(tau.degeneracy, at 8.3e-13 / 7.8e-13), Gamma dropped from one-slot
chains 2 / 2 (tau.normalization at 3.22 / 2.27 and cocycle.boundary_n1
at 0.259 / 0.489), simplex volume lost from the prefix chains 1 / 1
(entireness.jlo_bound at 3.58 / 105).  The gate asserts at least one.
The G defects wrap perturbation.transgression_cochain, which the
transgression checks call; every chain of tau and G goes through
cochain.chain_integral, so the chain defects patch that one binding, but
the entireness rows, which read the prefixes of one tuple per sample
through cochain._chain_prefixes, the binding the lost simplex volume
patches; and every chain goes through cochain._superderivation_stack,
which the leaking delta patches.
"""

import math

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
    # G^r times factor, wherever the transgression checks build it
    make = perturbation.transgression_cochain

    def scaled(ctx):
        g = make(ctx)
        return cochain.Cochain(lambda n, pool, index: factor * g.evaluator(n, pool, index),
                               g.parity, grading=g.grading, couplings=g.couplings)
    monkeypatch.setattr(perturbation, "transgression_cochain", scaled)


def negate_g(monkeypatch, spec):
    _scaled_transgression(monkeypatch, -1.0)


def scale_g(monkeypatch, spec):
    _scaled_transgression(monkeypatch, 1.5)


def drop_gamma(monkeypatch, spec):
    monkeypatch.setattr(kernels, "_grading_matrix", lambda grading: None)


def reverse_insertions(monkeypatch, spec):
    chain = kernels.chain_integral

    def reversed_chain(spectrum, pool, grading, q=None, index=None):
        return chain(spectrum, pool, grading, q, np.concatenate([index[:1], index[:0:-1]]))
    monkeypatch.setattr(cochain, "chain_integral", reversed_chain)


def flip_last_b_sign(monkeypatch, spec):
    b_terms = cochain._b_terms

    def flipped(n, *tables):
        signs, table = b_terms(n, *tables)
        return list(signs[:-1]) + [-signs[-1]], table
    monkeypatch.setattr(cochain, "_b_terms", flipped)


def wrong_b_signs(monkeypatch, spec):
    big_b_terms = cochain._B_terms

    def resigned(n, *tables):
        signs, table = big_b_terms(n, *tables)
        return [(-1) ** ((n + 1) * j) for j in range(len(signs))], table
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
    monkeypatch.setattr(cochain, "chain_integral", wrap(kernels.chain_integral))


def leaky_delta(monkeypatch, spec):
    # delta(x) + 1e-6 x in the chains alone: delta(c 1) is no longer 0, so
    # a scalar slot no longer makes tau vanish
    stack = cochain._superderivation_stack
    monkeypatch.setattr(cochain, "_superderivation_stack",
                        lambda sys, xs: stack(sys, xs) + 1e-6 * xs)


def gamma_less_trace(monkeypatch, spec):
    # a plain trace in the chains of one slot alone: tau_0, which only the
    # normalization row and the b terms of the degree-1 boundary read
    chain = kernels.chain_integral

    def traced(spectrum, pool, grading, q=None, index=None):
        one_slot = len(index) == 1 and q is None
        return chain(spectrum, pool, None if one_slot else grading, q, index)
    monkeypatch.setattr(cochain, "chain_integral", traced)


def lost_simplex_volume(monkeypatch, spec):
    # the prefix chain of degree k times k!, its simplex volume 1/k! lost
    prefixes = kernels._chain_prefixes

    def unscaled(spectrum, pool, grading, index):
        vals = prefixes(spectrum, pool, grading, index)
        return vals * np.array([math.factorial(k) for k in range(vals.shape[1])])
    monkeypatch.setattr(cochain, "_chain_prefixes", unscaled)


DEFECTS = {defect.__name__: defect for defect in (
    negate_g, scale_g, drop_gamma, reverse_insertions, flip_last_b_sign,
    wrong_b_signs, full_coupling_in_supercharge, unperturbed_chain_spectrum,
    leaky_delta, gamma_less_trace, lost_simplex_volume)}


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
def test_leaky_delta_turns_the_degeneracy_row_red(monkeypatch, spec):
    # the row reads tau from the chain, not from a test for scalar slots
    leaky_delta(monkeypatch, spec)
    assert "tau.degeneracy" in _red_rows(spec)


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_gamma_less_trace_turns_the_normalization_row_red(monkeypatch, spec):
    # tau_0 is the chain kernel's n = 0 contraction, not phi read again
    gamma_less_trace(monkeypatch, spec)
    assert "tau.normalization" in _red_rows(spec)


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_lost_simplex_volume_turns_the_jlo_bound_row_red(monkeypatch, spec):
    # the bound |tau_n| <= Tr(e^{-H}) / (|Z| n!) holds for every draw, and
    # fails once the chains lose the simplex volume 1/n!
    lost_simplex_volume(monkeypatch, spec)
    assert _red_rows(spec) == ["entireness.jlo_bound"]


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_every_chain_of_all_goes_through_the_patched_binding(monkeypatch, spec):
    # the chain defects and the sensitivity ladder patch
    # cochain.chain_integral; a chain built past that binding escapes them,
    # while other rows still go red.  Every chain and alternating chain of
    # the builder must run inside it, but the entireness prefixes, read
    # through cochain._chain_prefixes; the Dyson series are no chains
    build, open_calls, calls = kernels._heat_chain_blocks, [], []

    def entered(name, fn):
        def inside(*args, **kwargs):
            open_calls.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                open_calls.pop()
        return inside

    def recorded(spectrum, edges, what, scale=-1.0):
        calls.append((what.split(" with ")[0], open_calls[-1] if open_calls else None))
        return build(spectrum, edges, what, scale=scale)

    for name in ("chain_integral", "_chain_prefixes"):
        monkeypatch.setattr(cochain, name, entered(name, getattr(cochain, name)))
    for module in (kernels, perturbation):
        monkeypatch.setattr(module, "_heat_chain_blocks", recorded)
    assert _red_rows(spec) == []
    assert set(calls) == {("chain", "chain_integral"), ("alternating chain", "chain_integral"),
                          ("chain", "_chain_prefixes"), ("Dyson series", None)}


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_wrong_delta_sign_is_refused(monkeypatch, spec):
    def plus_sign(sys, xs):
        g = sys.grading.matrix
        return sys.supercharge @ xs + (g @ xs @ g) @ sys.supercharge
    for module in (dynamics, cochain):
        monkeypatch.setattr(module, "_superderivation_stack", plus_sign)
    with pytest.raises(ParityViolation, match="a_r must be selfadjoint"):
        run_suite(spec, "All")

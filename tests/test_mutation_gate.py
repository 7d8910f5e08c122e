"""Mutation gate: each known structural defect must turn a row of `All` red.

A suite that stays green with a defect injected cannot tell that defect
from working code (DeMillo, Lipton & Sayward, "Hints on test data
selection", 1978).  Each defect below is injected by a monkeypatch of one
module-level name, and `run_suite(spec, "All")` must then report at least
one gated row red on both reference specs, and the rows of PINNED_ROWS
among them.  The defects in the sign of delta and the ungraded delta make
a_r non-selfadjoint, so the run must refuse them instead.  Only
ChainBudgetExceeded and TruncationUnreachable inside a check become a
failing row; any other refusal (here PerturbedContext's ParityViolation)
aborts run_suite with no report, as the two refusal tests pin.  The kill
matrix (defect -> red gated rows, both specs) must match RED_COUNTS and
reach every gated row of All: a row that no defect can turn red holds by
construction, and its identity is stated where it holds, not reported.

Red rows at the time the gate was written, RandomGraded / RectangularBlock:
G negated 2 / 2, G x 1.5 2 / 2, Gamma dropped 11 / 11, insertion order
reversed 12 / 12, last Hochschild sign flipped 5 / 5, B signs 5 / 5, Q in
place of rQ 5 / 5, H in place of H_r 5 / 5, delta leaking 1e-6 x 1 / 1
(tau.degeneracy, at 8.3e-13 / 7.8e-13), Gamma dropped from one-slot
chains 2 / 2 (tau.normalization at 3.22 / 2.27 and cocycle.boundary_n1
at 0.259 / 0.489), simplex volume lost from the prefix chains 1 / 1
(entireness.jlo_bound at 3.58 / 105).  The gate asserts at least one.
The six defects of the kill matrix, added later, turn red the same rows on
both specs: Gamma dropped from phi's weight 7, a flow that is no
automorphism 12, the flow's time sign 6, the Dyson sign 2, a_r linear in r
10 and H not Q0^2 13, the last two among them skms.delta_squared_ad_h:
a_r vanishes at r = 0, so a_r linear in r reaches that row only because
the Axioms suite reads it at r = 1/2 as well (40 gated rows had given 9,
13, 6, 2, 10 and 16 before the five skms_r rows of the shared axioms left
All).
Their flow defects patch heisenberg_flow where dynamics, perturbation and
the suites bind it, and the two Hamiltonian defects rebuild the spectrum
and the weight that H or H_r gives.  A 2-norm read from the low end of
eigvalsh's ascending output, the smallest Gram eigenvalue, in the graph
normalization of the entireness samples turns 1 / 1 red
(entireness.jlo_bound at 4.6e6 / 1.8e9).
The G defects wrap perturbation.transgression_cochain, which the
transgression checks call; every chain of tau and G goes through
cochain.chain_integral, so the chain defects patch that one binding, but
the entireness rows, which read the prefixes of one tuple per sample
through cochain._chain_prefixes, the binding the lost simplex volume
patches; and every chain goes through cochain._superderivation_stack,
which the leaking delta patches.  The entireness samples are normalized
through cochain's binding of graded.spectral_norms, which the low-end
2-norm patches.
"""

import math

import numpy as np
import pytest

import skmslab.cochain as cochain
import skmslab.dynamics as dynamics
import skmslab.kernels as kernels
import skmslab.perturbation as perturbation
import skmslab.workbench.suites as suites
from skmslab.dynamics import GradedSystem
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
        return cochain.Cochain(lambda pool, tables: [factor * v for v in g.evaluator(pool, tables)],
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
        return chain(spectrum, pool, grading, q,
                     [np.concatenate([table[:1], table[:0:-1]]) for table in index])
    monkeypatch.setattr(cochain, "chain_integral", reversed_chain)


def flip_last_b_sign(monkeypatch, spec):
    b_terms = cochain._b_terms

    def flipped(n, pool, index):
        pool, signs, table = b_terms(n, pool, index)
        return pool, list(signs[:-1]) + [-signs[-1]], table
    monkeypatch.setattr(cochain, "_b_terms", flipped)


def wrong_b_signs(monkeypatch, spec):
    big_b_terms = cochain._B_terms

    def resigned(n, pool, index):
        pool, signs, table = big_b_terms(n, pool, index)
        return pool, [(-1) ** ((n + 1) * j) for j in range(len(signs))], table
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
        return [chain(spectrum, pool, None if len(table) == 1 and q is None else grading, q,
                      [table])[0] for table in index]
    monkeypatch.setattr(cochain, "chain_integral", traced)


def lost_simplex_volume(monkeypatch, spec):
    # the prefix chain of degree k times k!, its simplex volume 1/k! lost
    prefixes = kernels._chain_prefixes

    def unscaled(spectrum, pool, grading, index):
        vals = prefixes(spectrum, pool, grading, index)
        return vals * np.array([math.factorial(k) for k in range(vals.shape[1])])
    monkeypatch.setattr(cochain, "_chain_prefixes", unscaled)


def smallest_gram_eigenvalue(monkeypatch, spec):
    # the 2-norm as the square root of eigvalsh's first, smallest, Gram
    # eigenvalue: the smallest singular value, so the entireness samples
    # leave the unit ball of the graph norm
    def low_end(m):
        gram = m.conj().swapaxes(-1, -2) @ m
        return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., 0], 0.0))
    monkeypatch.setattr(cochain, "spectral_norms", low_end)


def phi_without_gamma(monkeypatch, spec):
    # phi's weight e^{-H} in place of Gamma e^{-H}, Z unchanged, for the
    # system and every context
    gibbs = dynamics._super_gibbs

    def gamma_less(grading, spectrum):
        z, weight = gibbs(grading, spectrum)
        return z, grading.matrix @ weight
    for module in (dynamics, perturbation):
        monkeypatch.setattr(module, "_super_gibbs", gamma_less)


def _patch_flow(monkeypatch, flow):
    # every binding of heisenberg_flow that a row reads
    for module in (dynamics, perturbation, suites):
        monkeypatch.setattr(module, "heisenberg_flow", flow)


def flow_not_automorphism(monkeypatch, spec):
    # alpha_z(x) = e^{izH} x e^{izH}, that is alpha_z(x) e^{2izH}
    flow = dynamics.heisenberg_flow

    def one_sided(sys, x, z):
        times = z if np.ndim(z) == 0 else np.asarray(z)[:, None]
        spectrum = sys.spectrum
        return flow(sys, x, z) @ spectrum.from_diagonal(np.exp(2j * times * spectrum.evals))
    _patch_flow(monkeypatch, one_sided)


def flow_time_sign(monkeypatch, spec):
    # alpha_{-t+is} in place of alpha_{t+is}
    flow = dynamics.heisenberg_flow
    _patch_flow(monkeypatch, lambda sys, x, z: flow(sys, x, -np.conj(z)))


def dyson_sign(monkeypatch, spec):
    # the Dyson run carries -c a_r: the odd terms of gamma^r change sign
    edge = perturbation._edge
    monkeypatch.setattr(perturbation, "_edge",
                        lambda row, col, pool, index: edge(row, col, -pool, index))


def _set_hamiltonian(obj, h):
    # h as the Hamiltonian of a system or a context, with the spectrum and
    # the weight it gives; returns Tr(Gamma e^{-h})
    obj.hamiltonian = h
    obj.spectrum = Spectrum(*np.linalg.eigh(h))
    z, obj._weight = dynamics._super_gibbs(obj.grading, obj.spectrum)
    return z


def linear_a_r(monkeypatch, spec):
    # a_r = r delta(Q), with no r^2 Q^2, and H_r = H + a_r from it
    init = PerturbedContext.__init__

    def linear(self, system, pert, r):
        init(self, system, pert, r)
        self.a_r = np.reshape(self.r, np.shape(self.r) + (1, 1)) * self.delta_q
        self.witten_index_r = _set_hamiltonian(self, system.hamiltonian + self.a_r)
    monkeypatch.setattr(PerturbedContext, "__init__", linear)


def hamiltonian_not_square(monkeypatch, spec):
    # H = Q0^2 + 1e-3 E, E = diag(0, 1, .., d - 1), even under the diagonal
    # Gamma of both reference specs
    init = GradedSystem.__init__

    def shifted(self, grading, supercharge):
        init(self, grading, supercharge)
        self.witten_index = _set_hamiltonian(
            self, self.hamiltonian + 1e-3 * np.diag(np.arange(self.dim)))
    monkeypatch.setattr(GradedSystem, "__init__", shifted)


DEFECTS = {defect.__name__: defect for defect in (
    negate_g, scale_g, drop_gamma, reverse_insertions, flip_last_b_sign,
    wrong_b_signs, full_coupling_in_supercharge, unperturbed_chain_spectrum,
    leaky_delta, gamma_less_trace, lost_simplex_volume, smallest_gram_eigenvalue,
    phi_without_gamma, flow_not_automorphism, flow_time_sign, dyson_sign,
    linear_a_r, hamiltonian_not_square)}


# the rows each defect of the kill matrix must turn red, on both specs,
# among any others
PINNED_ROWS = {
    "smallest_gram_eigenvalue": ["entireness.jlo_bound"],
    "phi_without_gamma": ["phi.normalization"],
    "flow_not_automorphism": ["skms.alpha_invariance"],
    "flow_time_sign": ["skms_r.error_term"],
    "dyson_sign": ["dyson.alpha_fidelity", "dyson.gamma_fidelity"],
    # a_r vanishes at r = 0: skms.delta_squared_ad_h must read r = 1/2
    "linear_a_r": ["witten.invariance", "skms.delta_squared_ad_h"],
    "hamiltonian_not_square": ["skms.delta_squared_ad_h"],
}


def _red_rows(spec):
    return [r.identity_name for r in run_suite(spec, "All")
            if r.tolerance != DOCUMENTED and not r.passed]


# (spec kind, defect) -> red gated rows, filled by test_defect_turns_a_row_red
# and read by the kill matrix, so that each defect runs once per spec
_RED_BY_DEFECT = {}


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_all_is_green_without_a_defect(spec):
    assert _red_rows(spec) == []


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("defect", list(DEFECTS))
def test_defect_turns_a_row_red(monkeypatch, spec, defect):
    DEFECTS[defect](monkeypatch, spec)
    red = _RED_BY_DEFECT[spec.kind, defect] = _red_rows(spec)
    assert red, "%s leaves every gated row green" % defect
    assert [row for row in PINNED_ROWS.get(defect, []) if row not in red] == []


# the kill matrix, one table for both specs: the number of gated rows each
# defect turns red.  It also pins that the gamma^r oracles read no flow
# binding the defects patch: an oracle that took alpha_t(x) from
# heisenberg_flow gave flow_not_automorphism 14
RED_COUNTS = {
    "negate_g": 2, "scale_g": 2, "drop_gamma": 11, "reverse_insertions": 12,
    "flip_last_b_sign": 5, "wrong_b_signs": 5, "full_coupling_in_supercharge": 6,
    "unperturbed_chain_spectrum": 5, "leaky_delta": 1, "gamma_less_trace": 2,
    "lost_simplex_volume": 1, "smallest_gram_eigenvalue": 1, "phi_without_gamma": 7,
    "flow_not_automorphism": 12, "flow_time_sign": 6, "dyson_sign": 2, "linear_a_r": 10,
    "hamiltonian_not_square": 13}


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_kill_matrix_reaches_every_gated_row(spec):
    # reads the runs of test_defect_turns_a_row_red, and makes those it lacks
    gated = [r.identity_name for r in run_suite(spec, "All") if r.tolerance != DOCUMENTED]
    for defect in DEFECTS:
        if (spec.kind, defect) not in _RED_BY_DEFECT:
            with pytest.MonkeyPatch.context() as monkeypatch:
                DEFECTS[defect](monkeypatch, spec)
                _RED_BY_DEFECT[spec.kind, defect] = _red_rows(spec)
    table = {defect: _RED_BY_DEFECT[spec.kind, defect] for defect in DEFECTS}
    assert {defect: len(red) for defect, red in table.items()} == RED_COUNTS
    reached = set().union(*table.values())
    assert (len(gated), len(reached)) == (35, 35)
    assert sorted(reached) == sorted(gated)


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


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_ungraded_delta_is_refused(monkeypatch, spec):
    # delta(x) = Q0 x - x Q0, the plain commutator: delta(Q) = [Q0, Q] is
    # antiselfadjoint, so a_r is refused as well
    def commutator(sys, xs):
        return sys.supercharge @ xs - xs @ sys.supercharge
    for module in (dynamics, cochain):
        monkeypatch.setattr(module, "_superderivation_stack", commutator)
    with pytest.raises(ParityViolation, match="a_r must be selfadjoint"):
        run_suite(spec, "All")

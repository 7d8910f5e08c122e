"""Tests for the perturbed dynamics, Dyson series, and transgression."""

import math

import numpy as np
import pytest
import scipy.linalg

from skmslab.dynamics import (GradedSystem, heisenberg_flow, skms_eval, superderivation,
                              verify_skms_axioms)
from skmslab.errors import ChainBudgetExceeded, ParityViolation, TruncationUnreachable
from skmslab.graded import GradingOperator, as_matrix, graded_commutator
import skmslab.kernels as kernels
import skmslab.perturbation as perturbation_module
from skmslab.kernels import chain_integral, gauss_legendre_01
from skmslab.perturbation import (
    OddPerturbation,
    PerturbedContext,
    dyson_alpha_info,
    dyson_gamma_one_info,
    endpoint_transgression_check,
    error_term,
    f_identities_check,
    gamma_cocycle_oracle,
    gamma_flow_oracle,
    homotopy_check,
    lemma43_check,
    lemma44_check,
    lipschitz_check,
    skms_check_perturbed,
    tau_r_eval,
    transgression_cochain,
    witten_invariance_check,
)
from skmslab.report import DOCUMENTED, Measurement
from skmslab.workbench import ModelSpec, build_model
from skmslab.workbench.models import build_perturbed_model
from skmslab.workbench.suites import gate
from skmslab.workbench import ModelSpec, run_suite
from skmslab.cochain import (Cochain, boundary, connes_B, entireness_diagnostic,
                             hochschild_b, jlo_cochain, lemma34_check, tau_eval)


def block_system(p, q, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    d = p + q
    m = rng.standard_normal((q, p)) + 1j * rng.standard_normal((q, p))
    q0 = np.zeros((d, d), dtype=complex)
    q0[:p, p:] = m.conj().T
    q0[p:, :p] = m
    q0 *= scale / np.linalg.norm(q0, 2)
    return GradedSystem(np.diag([1.0] * p + [-1.0] * q), q0)


def odd_perturbation(sys_, seed=100, scale=0.4):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((sys_.dim, sys_.dim)) + 1j * rng.standard_normal(
        (sys_.dim, sys_.dim))
    m = (m - sys_.grading.conjugate(m)) / 2
    m = (m + m.conj().T) / 2
    m *= scale / np.linalg.norm(m, 2)
    return OddPerturbation(m, sys_.grading)


def make_ctx(r=0.7, p=3, q=2, seed=0, scale=1.0, pert_scale=0.4):
    sys_ = block_system(p, q, seed=seed, scale=scale)
    pert = odd_perturbation(sys_, scale=pert_scale)
    return PerturbedContext(sys_, pert, r)


def even_tuple(sys_, rng, count):
    return [as_matrix(sys_.random_element(rng, parity="even")) for _ in range(count)]


def test_odd_perturbation_validation():
    sys_ = block_system(3, 2)
    with pytest.raises(ParityViolation, match="odd"):
        OddPerturbation(np.eye(5), sys_.grading)
    odd = np.zeros((5, 5), dtype=complex)
    odd[0, 3] = 1j
    with pytest.raises(ParityViolation, match="selfadjoint"):
        OddPerturbation(odd, sys_.grading)
    pert = odd_perturbation(sys_, scale=0.5)
    assert np.linalg.norm(pert.matrix, 2) == pytest.approx(0.5, rel=1e-12)
    # zero is a legal (trivial) perturbation
    OddPerturbation(np.zeros((5, 5)), sys_.grading)


def test_context_hamiltonian_is_squared_supercharge():
    ctx = make_ctx(r=0.7)
    q_total = ctx.system.supercharge + ctx.r * ctx.perturbation.matrix
    np.testing.assert_allclose(ctx.hamiltonian, q_total @ q_total, atol=1e-13)
    np.testing.assert_allclose(
        ctx.a_r,
        ctx.r * ctx.delta_q + ctx.r ** 2 * ctx.q_squared,
        atol=1e-14)
    ctx0 = PerturbedContext(ctx.system, ctx.perturbation, 0.0)
    np.testing.assert_allclose(ctx0.hamiltonian, ctx.system.hamiltonian, atol=1e-15)


def test_tail_bound_matches_exponential_remainder():
    ctx = make_ctx()
    y = 2.0 * 0.8 * ctx.a_norm
    partial = sum(y ** n / math.factorial(n) for n in range(5))
    want = math.exp(y) - partial
    assert ctx.tail_bound(0.8, 4) == pytest.approx(want, rel=1e-12)
    assert ctx.tail_bound(0.0, 0) == 0.0
    assert ctx.tail_bound(0.8, 4, norm_x=3.0) == pytest.approx(3 * want, rel=1e-12)


def test_choose_order_minimality_and_cap():
    ctx = make_ctx()
    order = ctx.choose_order(1.0, 1e-10)
    assert ctx.tail_bound(1.0, order) <= 1e-10
    if order > 0:
        assert ctx.tail_bound(1.0, order - 1) > 1e-10
    with pytest.raises(TruncationUnreachable):
        ctx.choose_order(60.0, 1e-10)
    # a first term past the float range bounds nothing: inf, where ** raised
    # OverflowError through verify All at perturbation scale 1e5
    strong = make_ctx(pert_scale=1e5)
    assert strong.tail_bound(1.0, 40) == math.inf
    with pytest.raises(TruncationUnreachable):
        strong.choose_order(1.0, 1e-10)


def test_flow_r_matches_expm():
    ctx = make_ctx(r=0.9)
    x = as_matrix(ctx.system.random_element(np.random.default_rng(1)))
    assert heisenberg_flow(ctx, x, 0.0) is x
    for z in (0.6, 0.3 + 0.4j):
        u = scipy.linalg.expm(1j * z * ctx.hamiltonian)
        want = u @ x @ scipy.linalg.expm(-1j * z * ctx.hamiltonian)
        np.testing.assert_allclose(heisenberg_flow(ctx, x, z), want, atol=1e-12)


def test_gamma_oracles():
    ctx = make_ctx(r=0.8)
    np.testing.assert_array_equal(gamma_cocycle_oracle(ctx, 0.0), np.eye(5))
    for t in (0.7, 1j):
        want = scipy.linalg.expm(1j * t * ctx.hamiltonian) @ scipy.linalg.expm(
            -1j * t * ctx.system.hamiltonian)
        np.testing.assert_allclose(gamma_cocycle_oracle(ctx, t), want, atol=1e-12)
    # real t gives a unitary
    g = gamma_cocycle_oracle(ctx, 0.7)
    np.testing.assert_allclose(g.conj().T @ g, np.eye(5), atol=1e-13)
    # gamma^r_t(x) = gamma^r_t(1) alpha_t(x)
    x = as_matrix(ctx.system.random_element(np.random.default_rng(2)))
    want_x = gamma_cocycle_oracle(ctx, 0.7) @ as_matrix(
        heisenberg_flow(ctx.system, x, 0.7))
    np.testing.assert_allclose(gamma_flow_oracle(ctx, x, 0.7), want_x, atol=1e-12)


def test_perturbed_superderivation():
    ctx = make_ctx(r=0.5)
    x = ctx.system.random_element(np.random.default_rng(3))
    want = as_matrix(superderivation(ctx.system, x)) + 0.5 * as_matrix(
        graded_commutator(ctx.perturbation.matrix, x, ctx.system.grading))
    np.testing.assert_allclose(
        as_matrix(superderivation(ctx, x)), want, atol=1e-14)
    # squares to [H_r, .] on the algebra
    dd = superderivation(ctx, superderivation(ctx, x))
    comm = ctx.hamiltonian @ as_matrix(x) - as_matrix(x) @ ctx.hamiltonian
    np.testing.assert_allclose(as_matrix(dd), comm, atol=1e-12)


def test_dyson_alpha_against_oracle():
    ctx = make_ctx(r=0.7, pert_scale=0.4)
    x = as_matrix(ctx.system.random_element(np.random.default_rng(4)))
    for t in (0.3, 1.0, -0.8):
        got, info = dyson_alpha_info(ctx, x, t, tol=1e-10)
        want = as_matrix(heisenberg_flow(ctx, x, t))
        err = np.linalg.norm(got - want, 2)
        assert err <= info.tail_bound + 1e-12
        assert info.order <= 40


def test_dyson_alpha_fixed_order_improves():
    ctx = make_ctx(r=0.7)
    x = as_matrix(ctx.system.random_element(np.random.default_rng(5)))
    want = as_matrix(heisenberg_flow(ctx, x, 1.0))
    errs = []
    for order in (1, 3, 6):
        got, _ = dyson_alpha_info(ctx, x, 1.0, order=order)
        errs.append(np.linalg.norm(as_matrix(got) - want, 2))
    assert errs[2] < errs[1] < errs[0]
    # trivial cases collapse to the unperturbed flow
    got0, _ = dyson_alpha_info(ctx, x, 0.0)
    np.testing.assert_array_equal(as_matrix(got0), x)


def test_dyson_gamma_real_time():
    ctx = make_ctx(r=0.6)
    for t in (0.4, 1.0):
        got, info = dyson_gamma_one_info(ctx, t, tol=1e-10)
        want = gamma_cocycle_oracle(ctx, t)
        assert np.linalg.norm(got - want, 2) <= info.tail_bound + 1e-12


def test_dyson_gamma_first_order_term_quadrature():
    # at truncation order 1, gamma(t) = 1 + it int_0^1 alpha_{ts}(a_r) ds
    ctx = make_ctx(r=0.5)
    t = 0.5
    u, w = gauss_legendre_01(24)
    integral = sum(
        wj * as_matrix(heisenberg_flow(ctx.system, ctx.a_r, t * uj))
        for uj, wj in zip(u, w))
    want = np.eye(5) + 1j * t * integral
    got, _ = dyson_gamma_one_info(ctx, t, order=1)
    assert np.linalg.norm(got - want, 2) < 1e-12


def test_dyson_gamma_imaginary_point():
    ctx = make_ctx(r=0.8, pert_scale=0.3)
    got, info = dyson_gamma_one_info(ctx, 1j, tol=1e-12)
    want = gamma_cocycle_oracle(ctx, 1j)
    assert np.linalg.norm(got - want, 2) <= info.tail_bound + 1e-12
    # first-order term equals -int_0^1 e^{-uH} a e^{uH} du
    u, w = gauss_legendre_01(24)
    h = ctx.system.hamiltonian
    integral = sum(
        wj * (scipy.linalg.expm(-uj * h) @ ctx.a_r @ scipy.linalg.expm(uj * h))
        for uj, wj in zip(u, w))
    got1, _ = dyson_gamma_one_info(ctx, 1j, order=1)
    np.testing.assert_allclose(got1, np.eye(5) - integral, atol=1e-10)
    with pytest.raises(ValueError, match="t = i"):
        dyson_gamma_one_info(ctx, 2j)
    with pytest.raises(ValueError, match="t = i"):
        dyson_gamma_one_info(ctx, 0.3 + 0.4j)


def test_dyson_alpha_first_order_term_quadrature():
    # at truncation order 1,
    # alpha^r_t(x) = alpha_t(x) + it int_0^1 [alpha_{ts}(a_r), alpha_t(x)] ds
    ctx = make_ctx(r=0.5)
    x = as_matrix(ctx.system.random_element(np.random.default_rng(8)))
    for t in (0.5, -0.9):
        xt = as_matrix(heisenberg_flow(ctx.system, x, t))
        u, w = gauss_legendre_01(24)
        integral = 0.0
        for uj, wj in zip(u, w):
            a = as_matrix(heisenberg_flow(ctx.system, ctx.a_r, t * uj))
            integral = integral + wj * (a @ xt - xt @ a)
        got, _ = dyson_alpha_info(ctx, x, t, order=1)
        assert np.linalg.norm(got - (xt + 1j * t * integral), 2) < 1e-12


def test_dyson_negative_order_is_refused():
    ctx = make_ctx(r=0.5)
    x = np.eye(5)
    for t in (0.5, 1j):
        with pytest.raises(ValueError, match="order must be >= 0"):
            dyson_gamma_one_info(ctx, t, order=-1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        dyson_alpha_info(ctx, x, 0.5, order=-3)
    with pytest.raises(TruncationUnreachable, match="exceeds cap 40"):
        dyson_alpha_info(ctx, x, 0.5, order=41)
    with pytest.raises(TruncationUnreachable, match="exceeds cap 40"):
        dyson_gamma_one_info(ctx, 0.5, order=41)


@pytest.mark.parametrize("order", [None, 5])
@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_dyson_refuses_a_time_that_is_not_finite(t, order):
    # a NaN t read a zero tail bound, the exact identity at order 0, and
    # with an order the NaN price passed the budget guard
    ctx = make_ctx(r=0.5)
    with pytest.raises(ValueError, match="t must be finite, got %r" % (t,)):
        dyson_alpha_info(ctx, np.eye(5), t, order=order)
    with pytest.raises(ValueError, match="t must be finite, got %r" % (t,)):
        dyson_gamma_one_info(ctx, t, order=order)


def test_dyson_series_is_one_exponential(builder_calls):
    x = as_matrix(make_ctx().system.random_element(np.random.default_rng(9)))
    for run in (lambda ctx: dyson_alpha_info(ctx, x, 0.7),
                lambda ctx: dyson_gamma_one_info(ctx, 0.7),
                lambda ctx: dyson_gamma_one_info(ctx, 1j)):
        ctx = make_ctx(r=0.6)
        del builder_calls[:]
        _, info = run(ctx)
        assert info.order >= 1
        assert builder_calls == [(1, (info.order + 1) * ctx.dim)]
    # the context keeps the terms of each (t, order): alpha and gamma at
    # one t share one series
    ctx = make_ctx(r=0.6)
    del builder_calls[:]
    _, info = dyson_alpha_info(ctx, x, 0.7)
    _, ginfo = dyson_gamma_one_info(ctx, 0.7)
    assert info.order == ginfo.order and len(builder_calls) == 1


def test_dyson_terms_stay_with_their_one_coupling_context():
    # at(0) and at(1) of one vector context each keep their own terms, in
    # either call order, at the same (t, order): the bits of fresh contexts
    sys_ = block_system(3, 2)
    pert = odd_perturbation(sys_)
    x = as_matrix(sys_.random_element(np.random.default_rng(14)))
    rs = (0.3, 0.8)

    def series(ctx):
        return [dyson_alpha_info(ctx, x, t, order=6) for t in (0.4, 1.0)] + [
            dyson_gamma_one_info(ctx, t, order=6) for t in (0.4, 1j)]

    want = [series(PerturbedContext(sys_, pert, r)) for r in rs]
    # the couplings' terms differ, so values read from the other's could not pass
    for (a, _), (b, _) in zip(*want):
        assert not np.array_equal(a, b)
    for order in ((0, 1), (1, 0)):
        vec = PerturbedContext(sys_, pert, list(rs))
        for k in order:
            for (val, info), (ref, ref_info) in zip(series(vec.at(k)), want[k]):
                np.testing.assert_array_equal(val, ref)
                assert info == ref_info


def _gamma_terms_with(defect):
    # perturbation._gamma_terms with one defect injected (None: unchanged)
    def terms(ctx, t, order):
        spec = ctx.system.spectrum
        c = 1j * complex(t)
        a = ctx.r * ctx.delta_q if defect == "no_q_squared" else ctx.a_r
        edge = np.conj(c) if defect == "conjugate_edge" else c
        y = edge * spec.to_eigenbasis(a)
        run = kernels._edge(0, 1, y, np.zeros((1, order), dtype=int))
        blocks = kernels._heat_chain_blocks(spec, [run], "mutant", scale=c)[0]
        if defect == "no_phase":
            return blocks
        return blocks * np.exp(-c * spec.evals)
    return terms


REFERENCE_SPECS = (
    ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
              perturbation={"seed": 11, "scale": 0.3}),
    ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1, scale=1.0),
)


def _dyson_rows(spec):
    return {r.identity_name: r.passed for r in run_suite(spec, "Perturbation")
            if r.identity_name.startswith("dyson.")}


def test_dyson_mutant_template_is_the_real_route():
    ctx = make_ctx(r=0.7)
    for t in (0.4, 1j):
        np.testing.assert_array_equal(
            _gamma_terms_with(None)(ctx, t, 6),
            perturbation_module._gamma_terms(ctx, t, 6))


@pytest.mark.parametrize("defect, red", [
    ("no_phase", {"dyson.alpha_fidelity", "dyson.gamma_fidelity"}),
    ("conjugate_edge", {"dyson.alpha_fidelity", "dyson.gamma_fidelity"}),
    ("no_q_squared", {"dyson.alpha_fidelity", "dyson.gamma_fidelity"}),
])
def test_dyson_rows_catch_injected_defects(monkeypatch, defect, red):
    for spec in REFERENCE_SPECS:
        assert all(_dyson_rows(spec).values())
    monkeypatch.setattr(perturbation_module, "_gamma_terms",
                        _gamma_terms_with(defect))
    for spec in REFERENCE_SPECS:
        rows = _dyson_rows(spec)
        assert {name for name, ok in rows.items() if not ok} == red, spec.kind


def test_perturbed_functional_routes_agree():
    ctx = make_ctx(r=0.9, pert_scale=0.3)
    x = as_matrix(ctx.system.random_element(np.random.default_rng(6)))
    heat = scipy.linalg.expm(-ctx.hamiltonian)
    want = np.trace(ctx.system.grading.matrix @ x @ heat) / ctx.system.witten_index
    exact = skms_eval(ctx, x)
    assert exact == pytest.approx(want, abs=1e-12)
    series = skms_eval(ctx.system, x @ dyson_gamma_one_info(ctx, 1j, tol=1e-12)[0])
    assert abs(series - exact) < 1e-10
    assert skms_eval(ctx, np.eye(5)) == pytest.approx(1.0, abs=1e-12)


def test_error_term_vanishes():
    ctx = make_ctx(r=0.7)
    e0 = error_term(ctx, 0.0)
    assert np.linalg.norm(e0) == 0.0  # exactly zero at t = 0
    for t in (0.3, 1.0):
        assert np.linalg.norm(error_term(ctx, t), 2) < 1e-12


def test_tau_r_reduces_to_tau_at_zero_coupling():
    sys_ = block_system(3, 2, seed=7)
    pert = odd_perturbation(sys_)
    ctx0 = PerturbedContext(sys_, pert, 0.0)
    rng = np.random.default_rng(8)
    xs = even_tuple(sys_, rng, 3)
    a = tau_r_eval(ctx0, 2, xs)
    b = tau_eval(sys_, 2, xs)
    assert a == pytest.approx(b, abs=1e-13)
    # every function that takes a context agrees with the system at r = 0
    x = as_matrix(sys_.random_element(rng))
    for z in (0.6, 0.3 + 0.4j, 1j):
        np.testing.assert_allclose(heisenberg_flow(ctx0, x, z),
                                   heisenberg_flow(sys_, x, z), atol=1e-13)
    assert skms_eval(ctx0, x) == pytest.approx(skms_eval(sys_, x), abs=1e-13)
    np.testing.assert_allclose(superderivation(ctx0, x),
                               superderivation(sys_, x), atol=1e-13)
    dtau0 = boundary(jlo_cochain(ctx0))
    dtau = boundary(jlo_cochain(sys_))
    for n in (0, 1, 3):
        ys = even_tuple(sys_, rng, n + 1)
        assert dtau0(n, ys) == pytest.approx(dtau(n, ys), abs=1e-13)


def test_tau_r_parity_and_degeneracy():
    ctx = make_ctx(r=0.5)
    rng = np.random.default_rng(9)
    xs = even_tuple(ctx.system, rng, 3)
    assert tau_r_eval(ctx, 1, xs[:2]) == 0.0
    assert tau_r_eval(ctx, 2, [xs[0], 2.5 * np.eye(5), xs[2]]) == 0.0
    # (B + b)G^r at the unit is an exact 0
    assert boundary(transgression_cochain(ctx))(0, [np.eye(5)]) == 0.0
    with pytest.raises(ParityViolation):
        tau_r_eval(ctx, 2, [as_matrix(ctx.system.random_element(rng))] + xs[1:])


def test_transgression_hand_expansion_degree_one():
    # G_m(x0, ..) = sum_k (-1)^k F_{m+1}(x0, d_r x1, .., d_r xk, Q, ..), formed
    # term by term; r = 0 has the degenerate spectrum of the block model
    for r in (0.6, 0.0):
        ctx = make_ctx(r=r)
        rng = np.random.default_rng(10)
        q = ctx.perturbation.matrix
        for m in (1, 3, 5):
            xs = even_tuple(ctx.system, rng, m + 1)
            derived = [as_matrix(superderivation(ctx, x)) for x in xs[1:]]
            terms = [(-1) ** k * chain_integral(
                         ctx.spectrum, [xs[0]] + derived[:k] + [q] + derived[k:],
                         ctx.grading) / ctx.witten_index
                     for k in range(m + 1)]
            got = transgression_cochain(ctx)(m, xs)
            scale = max(abs(t) for t in terms)
            assert abs(got - sum(terms)) <= 1e-12 * scale, (r, m)
    # even degree returns 0; scalar slots collapse exactly
    g = transgression_cochain(ctx)
    assert g(2, xs[:3]) == 0.0
    assert g(1, [xs[0], -1.5 * np.eye(5)]) == 0.0


def test_block_exponentials_priced_at_their_size(monkeypatch):
    # m = 3, d = 5: each literal chain is (m+2)d = 25 wide, the one
    # exponential behind G is 2(m+1)d = 40 wide
    ctx = make_ctx(r=0.6)
    xs = even_tuple(ctx.system, np.random.default_rng(12), 4)
    budget = 30000.0
    assert 25.0 ** 3 < budget < 40.0 ** 3
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", str(budget))
    with pytest.raises(ChainBudgetExceeded,
                       match="alternating chain with d=5, m=3 needs a 40x40"):
        transgression_cochain(ctx)(3, xs)
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", str(40.0 ** 3))
    assert transgression_cochain(ctx)(3, xs) != 0.0
    # a Dyson series of order 8, at real t or t = i, is one (8+1)d = 45
    # wide exponential; each run takes a fresh context, which keeps no terms
    x = as_matrix(ctx.system.random_element(np.random.default_rng(13)))
    for run in (lambda c: dyson_gamma_one_info(c, 1j, order=8),
                lambda c: dyson_gamma_one_info(c, 0.5, order=8),
                lambda c: dyson_alpha_info(c, x, 0.5, order=8)):
        fresh = make_ctx(r=0.6)
        monkeypatch.setenv("SKMS_CHAIN_BUDGET", str(44.0 ** 3))
        with pytest.raises(ChainBudgetExceeded, match="order=8 needs a 45x45"):
            run(fresh)
        monkeypatch.setenv("SKMS_CHAIN_BUDGET", str(45.0 ** 3))
        run(fresh)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_of_transgression_names_the_odd_slot(n):
    # checked at every degree, also at odd n where boundary(G) is 0
    ctx = make_ctx(r=0.6)
    dG = boundary(transgression_cochain(ctx))
    rng = np.random.default_rng(31)
    for slot in range(n + 1):
        xs = even_tuple(ctx.system, rng, n + 1)
        xs[slot] = as_matrix(ctx.system.random_element(rng, parity="odd"))
        with pytest.raises(ParityViolation, match="slot %d is not even" % slot):
            dG(n, xs)


def test_boundary_of_transgression_equals_B_plus_b_of_checked_G():
    # random tuples; x_0 within 1e-14 of 2.5 times the unit; x_2 = x_1^-1
    ctx = make_ctx(r=0.6)
    g = transgression_cochain(ctx)
    dG = boundary(g)
    rng = np.random.default_rng(32)
    eye = np.eye(ctx.dim)
    for n in (0, 2):
        plain = even_tuple(ctx.system, rng, n + 1)
        near = [2.5 * eye + 1e-14 * plain[0]] + plain[1:]
        assert 0.0 < np.linalg.norm(near[0] - 2.5 * eye) <= 1e-12 * np.linalg.norm(near[0])
        inputs = [plain, near]
        if n == 2:
            x1 = plain[1] + 3.0 * eye
            inputs.append([plain[0], x1, np.linalg.inv(x1)])
            unit = x1 @ inputs[-1][2]
            assert 0.0 < np.linalg.norm(unit - eye) <= 1e-12 * np.linalg.norm(unit)
        for xs in inputs:
            want = connes_B(g, n, xs)
            if n >= 1:
                want += hochschild_b(g, n, xs)
            assert dG(n, xs) == want, n


def test_boundary_of_transgression_classifies_each_argument_once(monkeypatch):
    ctx = make_ctx(r=0.6)
    dG = boundary(transgression_cochain(ctx))
    rng = np.random.default_rng(33)
    calls = []
    classify = GradingOperator.classify

    def counted(self, x):
        calls.append(np.array(x))
        return classify(self, x)

    monkeypatch.setattr(GradingOperator, "classify", counted)
    for n in (0, 2):
        xs = even_tuple(ctx.system, rng, n + 1)
        del calls[:]
        dG(n, xs)
        # one call, on the n + 1 arguments in slot order
        assert len(calls) == 1 and np.array_equal(calls[0], np.stack(xs))


def test_boundary_of_transgression_makes_one_exponential_call_per_degree(builder_calls):
    # n = 2: three B terms at degree 3, each 2(3+1)d = 40 wide, and three
    # b terms at degree 1, each 20 wide
    ctx = make_ctx(r=0.6)
    dG = boundary(transgression_cochain(ctx))
    xs = even_tuple(ctx.system, np.random.default_rng(34), 3)
    dG(2, xs)
    assert builder_calls == [(3, 40), (3, 20)]


@pytest.mark.parametrize("p, q", [(3, 2), (6, 4)])
@pytest.mark.parametrize("r", [0.0, 0.6])
def test_chain_batches_equal_single_calls_bit_for_bit(p, q, r):
    # r = 0 has the degenerate spectrum of the block model (a kernel and
    # paired levels); r = 0.6 is a generic point of the context
    ctx = make_ctx(r=r, p=p, q=q)
    d = ctx.dim
    qm = ctx.perturbation.matrix
    rng = np.random.default_rng(35)
    for k in (1, 7):
        for n in (0, 1, 2, 3):
            tuples = [[rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                       for _ in range(n + 1)] for _ in range(k)]
            # tuple t in pool entries t (n + 1) .. (t + 1) (n + 1)
            pool = np.array([x for xs in tuples for x in xs])
            index = np.arange(k * (n + 1)).reshape(k, n + 1).T
            chains = chain_integral(ctx.spectrum, pool, ctx.grading, index=index)
            alts = chain_integral(ctx.spectrum, pool, ctx.grading, q=qm, index=index)
            assert chains.shape == alts.shape == (k,)
            for xs, c, a in zip(tuples, chains, alts):
                assert c == chain_integral(ctx.spectrum, xs, ctx.grading), (k, n)
                assert a == chain_integral(ctx.spectrum, xs, ctx.grading, q=qm), (k, n)


def test_perturbed_cocycle_identity():
    # (B + b) tau^r = 0 with the perturbed superderivation and heat kernel
    ctx = make_ctx(r=0.8, pert_scale=0.3)
    dtau = boundary(jlo_cochain(ctx))
    rng = np.random.default_rng(12)
    worst = 0.0
    for n in (1, 3):
        xs = even_tuple(ctx.system, rng, n + 1)
        worst = max(worst, abs(dtau(n, xs)))
    assert worst < 1e-10


def test_lemma43_rows():
    ctx = make_ctx(r=0.5)
    measured = lemma43_check(ctx, samples=8, seed=1)
    # measurements carry no verdict and no stamp:
    # test_all_suite_rows_are_pinned checks the stamps
    assert all(type(m) is Measurement for m in measured)
    rows = gate(measured, 1e-11)
    assert [r.identity_name for r in rows] == [
        "gamma_r.composition",
        "gamma_r.adjoint_unitarity",
        "alpha_r.conjugation",
        "gamma_r.multiplicativity",
    ]
    for r in rows:
        assert r.passed, (r.identity_name, r.max_residual)


def test_lemma44_rows():
    sys_ = block_system(3, 2, seed=13)
    rows = gate(lemma44_check(sys_, n=2, samples=6, seed=2), 1e-10)
    assert [r.identity_name for r in rows] == [
        "flow.cyclic_conjugation",
        "flow.reflection",
    ]
    for r in rows:
        assert r.passed, (r.identity_name, r.max_residual)


def test_perturbed_skms_rows():
    # the perturbation's own identities; the axioms phi^r shares with phi
    # are verify_skms_axioms's on the same context
    ctx = make_ctx(r=0.5, pert_scale=0.3)
    rows = gate(skms_check_perturbed(ctx, samples=8, seed=3), 1e-9)
    names = [r.identity_name for r in rows]
    assert names == [
        "skms_r.kms_boundary",
        "skms_r.error_term",
        "skms_r.error_term_at_zero",
    ]
    for r in rows:
        assert r.passed, (r.identity_name, r.max_residual)
    at_zero = rows[-1]
    assert at_zero.max_residual == 0.0 and at_zero.tolerance == 0.0
    shared = gate(verify_skms_axioms(ctx, samples=8, seed=3), 1e-9)
    assert [r.identity_name for r in shared if not r.passed] == []


@pytest.mark.parametrize("check, couplings", [
    # K = 2 with 2 samples and K = d = 5 with 5 samples broadcast against the
    # stacks and returned rows: F.heat_commutator_inner read 2.4e-4 (4.5e-17
    # at one coupling) and gamma_r.adjoint_unitarity 2.3
    (lambda ctx: f_identities_check(ctx, samples=2), [0.3, 0.4]),
    (lambda ctx: lemma43_check(ctx, samples=5), [0.1, 0.2, 0.3, 0.4, 0.5]),
    # these ended in a numpy broadcast ValueError
    (lambda ctx: lemma43_check(ctx, samples=2), [0.1, 0.2, 0.3, 0.4, 0.5]),
    (lambda ctx: skms_check_perturbed(ctx, samples=2), [0.3, 0.4]),
    (lambda ctx: error_term(ctx, 0.3), [0.3, 0.4]),
    # entireness would sum every coupling's Tr e^{-H_r} into one bound, and
    # the graph normalization broadcast (M, d, d) against (K, d, d)
    (lambda ctx: entireness_diagnostic(ctx, samples=2), [0.3, 0.4]),
    (lambda ctx: lemma34_check(ctx, samples=2), [0.3, 0.4]),
], ids=["f_identities", "lemma43_k_eq_d", "lemma43", "skms_perturbed", "error_term",
        "entireness", "lemma34"])
def test_one_coupling_checks_refuse_a_vector_context(check, couplings):
    spec = ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1, scale=1.0)
    sys_, pert = build_perturbed_model(spec, 0)
    ctx = PerturbedContext(sys_, pert, couplings)
    with pytest.raises(ValueError, match=r"takes a one-coupling context; "
                                         r"select one with ctx\.at\(k\)"):
        check(ctx)
    assert check(ctx.at(1)) is not None


@pytest.mark.parametrize("check", [
    lambda ctx: verify_skms_axioms(ctx, samples=6, seed=1),
    lambda ctx: lemma34_check(ctx, n=2, samples=2, seed=1),
    lambda ctx: entireness_diagnostic(ctx, samples=4, seed=1),
], ids=["axioms", "lemma34", "entireness"])
@pytest.mark.parametrize("couplings", [0.5, None], ids=["scalar", "at"])
def test_checks_that_draw_run_on_a_one_coupling_context(check, couplings):
    # they drew through GradedSystem.random_elements, which a context lacks,
    # and ended in an AttributeError; the draw is the grading's
    spec = ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
                     perturbation={"seed": 11, "scale": 0.3})
    sys_, pert = build_perturbed_model(spec, 0)
    ctx = (PerturbedContext(sys_, pert, couplings) if couplings is not None
           else PerturbedContext(sys_, pert, [0.0, 0.5]).at(1))
    rows = gate(check(ctx), 1e-8)
    assert rows and [r.identity_name for r in rows if not r.passed] == []


def test_f_identity_rows():
    ctx = make_ctx(r=0.5)
    rows = gate(f_identities_check(ctx, n=2, samples=6, seed=4), 1e-9)
    assert [r.identity_name for r in rows] == [
        "F.rotation",
        "F.heat_commutator_inner",
        "F.heat_commutator_last",
        "F.unit_insertion",
        "F.derivation_cycle",
    ]
    for r in rows:
        assert r.passed, (r.identity_name, r.max_residual)


def test_f_identities_at_coupling_extremes():
    for r in (0.0, 1.0):
        ctx = make_ctx(r=r, pert_scale=0.3)
        rows = gate(f_identities_check(ctx, n=2, samples=4, seed=5), 1e-9)
        assert all(row.passed for row in rows)


def test_witten_invariance_rows():
    sys_ = block_system(3, 2, seed=14)
    pert = odd_perturbation(sys_)
    rows = gate(witten_invariance_check(sys_, pert, grid=6), 1e-10)
    assert [r.identity_name for r in rows] == [
        "witten.invariance", "phi_r.normalization"]
    for r in rows:
        assert r.passed, (r.identity_name, r.max_residual)


@pytest.mark.parametrize("grid", [1, 0, -3, 2.5, 3.0, True])
def test_witten_invariance_refuses_grids_below_two(grid):
    # and grids that are not integers: 3.0 ended in np.linspace
    sys_ = block_system(3, 2, seed=14)
    with pytest.raises(ValueError, match="at least 2 points"):
        witten_invariance_check(sys_, odd_perturbation(sys_), grid=grid)


def test_lipschitz_rows():
    sys_ = block_system(3, 2, seed=15)
    pert = odd_perturbation(sys_)
    rows = gate(lipschitz_check(sys_, pert, samples=30, seed=6), 0.0)
    assert rows[0].identity_name == "alpha_r.lipschitz_in_r"
    assert rows[0].max_residual == 0.0
    assert rows[0].passed


def test_lipschitz_bound_past_the_float_range_holds_vacuously():
    # at perturbation scale 30, c >= ||Q^2|| = 900 and math.exp(2c) raised
    # "math range error" in run_suite and skms perturb sweep
    sys_ = block_system(3, 2, seed=15)
    pert = odd_perturbation(sys_, scale=30.0)
    (row,) = lipschitz_check(sys_, pert, samples=30, seed=6)
    assert (row.identity_name, row.samples, row.max_residual) == (
        "alpha_r.lipschitz_in_r", 30, 0.0)


def test_homotopy_sign_is_fixed(monkeypatch):
    # dtau^r/dr = -(B + b)G^r is the stated convention; a negated G is a
    # defect that both transgression rows catch, not a second orientation
    sys_ = block_system(3, 2, seed=16)
    pert = odd_perturbation(sys_, scale=0.4)
    rng = np.random.default_rng(17)
    xs = even_tuple(sys_, rng, 3)

    def rows():
        out = homotopy_check(sys_, pert, 2, xs, r=0.5)
        out += endpoint_transgression_check(sys_, pert, 2, xs)
        return {r.identity_name: r for r in out}

    by_name = rows()
    assert list(by_name) == ["transgression.derivative",
                             "transgression.derivative_order",
                             "transgression.endpoint"]
    assert by_name["transgression.derivative"].tolerance == DOCUMENTED
    assert by_name["transgression.derivative_order"].max_residual == 0.0
    assert all(r.passed for r in by_name.values())

    make = perturbation_module.transgression_cochain

    def negated(ctx):
        g = make(ctx)
        return Cochain(lambda pool, tables: [-v for v in g.evaluator(pool, tables)], g.parity,
                       grading=g.grading, couplings=g.couplings)
    monkeypatch.setattr(perturbation_module, "transgression_cochain", negated)
    by_name = rows()
    assert not by_name["transgression.derivative_order"].passed
    assert not by_name["transgression.endpoint"].passed


@pytest.mark.parametrize("check", [homotopy_check, endpoint_transgression_check])
@pytest.mark.parametrize("n", [2.5, -1, True])
def test_transgression_checks_refuse_the_degree_before_any_context(monkeypatch, check, n):
    # each built its context, one eigendecomposition per coupling, before
    # the Cochain call refused the degree
    sys_ = block_system(3, 2, seed=16)
    pert = odd_perturbation(sys_, scale=0.4)
    xs = even_tuple(sys_, np.random.default_rng(17), 3)
    built = []
    init = PerturbedContext.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(PerturbedContext, "__init__", counted)
    with pytest.raises(ValueError, match="^degree must be"):
        check(sys_, pert, n, xs)
    assert built == []


@pytest.mark.parametrize("check", [homotopy_check, endpoint_transgression_check])
def test_transgression_checks_refused_by_the_chain_budget(monkeypatch, check):
    # at n = 2 on d = 5 the B terms of (B + b)G^r take G^r at degree 3,
    # one 2(3+1)5 = 40 wide exponential; SKMS_CHAIN_BUDGET prices it
    sys_ = block_system(3, 2, seed=16)
    pert = odd_perturbation(sys_, scale=0.4)
    xs = even_tuple(sys_, np.random.default_rng(17), 3)
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", str(40.0 ** 3 - 1.0))
    with pytest.raises(ChainBudgetExceeded, match="d=5, m=3 needs a 40x40"):
        check(sys_, pert, 2, xs)
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", str(40.0 ** 3))
    assert all(r.passed for r in check(sys_, pert, 2, xs))


def test_homotopy_trivial_perturbation():
    sys_ = block_system(3, 2, seed=18)
    pert = OddPerturbation(np.zeros((5, 5)), sys_.grading)
    rng = np.random.default_rng(19)
    xs = even_tuple(sys_, rng, 3)
    rows = homotopy_check(sys_, pert, 2, xs, r=0.5)
    by_name = {r.identity_name: r for r in rows}
    assert by_name["transgression.derivative"].max_residual == 0.0
    assert by_name["transgression.derivative_order"].max_residual == 0.0


def test_homotopy_step_domain_guard():
    sys_ = block_system(3, 2, seed=20)
    pert = odd_perturbation(sys_)
    xs = even_tuple(sys_, np.random.default_rng(21), 3)
    with pytest.raises(ValueError, match="leaves"):
        homotopy_check(sys_, pert, 2, xs, r=0.005)
    # no order can be measured from one step, and none from no step (that
    # used to end in an IndexError)
    for hs in ((), (1e-3,)):
        with pytest.raises(ValueError, match="at least two steps"):
            homotopy_check(sys_, pert, 2, xs, hs=hs)


def test_context_refuses_a_coupling_that_is_not_finite():
    # NaN passed the range test of homotopy_check and ended in a
    # LinAlgError from eigh
    sys_ = block_system(3, 2, seed=20)
    pert = odd_perturbation(sys_)
    for r in (math.nan, math.inf, [0.2, math.nan]):
        with pytest.raises(ValueError, match="coupling r must be finite"):
            PerturbedContext(sys_, pert, r)
    xs = even_tuple(sys_, np.random.default_rng(21), 3)
    with pytest.raises(ValueError, match="coupling r must be finite"):
        homotopy_check(sys_, pert, 2, xs, r=math.nan)


@pytest.mark.parametrize("hs", [(0.0, 1e-3), (1e-2, -1e-3)])
def test_homotopy_refuses_a_step_that_is_not_positive(hs):
    # h = 0 used to end in a complex division by zero
    sys_ = block_system(3, 2, seed=20)
    pert = odd_perturbation(sys_)
    xs = even_tuple(sys_, np.random.default_rng(21), 3)
    bad = min(hs)
    with pytest.raises(ValueError, match="step h = %r must be positive" % bad):
        homotopy_check(sys_, pert, 2, xs, hs=hs)


@pytest.mark.parametrize("hs", [(1e-2, 1e-2), (1e-2, 5e-3, 1e-2)])
def test_homotopy_refuses_a_repeated_step(hs):
    # a repeated step made the order divide by log(1) = 0: ZeroDivisionError
    sys_ = block_system(3, 2, seed=20)
    pert = odd_perturbation(sys_)
    xs = even_tuple(sys_, np.random.default_rng(21), 3)
    with pytest.raises(ValueError, match="step h = 0.01 is repeated"):
        homotopy_check(sys_, pert, 2, xs, hs=hs)


def _endpoint_models():
    # the two reference specs with the tuple the Homotopy suite draws, and
    # the criterion-11 model (RectangularBlock 5+3, d = 8)
    specs = (ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
                       perturbation={"seed": 11, "scale": 0.3}),
             ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1, scale=1.0))
    for spec in specs:
        sys_, pert = build_perturbed_model(spec, 0)
        rng = np.random.default_rng(np.random.SeedSequence((0, 0x48)))
        yield sys_, pert, list(sys_.grading.random_elements(rng, 3, parity="even"))
    sys_ = build_model(ModelSpec(kind="RectangularBlock", p=5, q=3, seed=4,
                                 scale=1.0))[0]
    rng = np.random.default_rng(np.random.SeedSequence((4, 0x48)))
    yield sys_, odd_perturbation(sys_, seed=44), even_tuple(sys_, rng, 3)


def test_endpoint_transgression():
    # tau^r is analytic in r: 8 Gauss-Legendre nodes put the endpoint
    # identity at rounding level (about 4e-15 of |tau^1 - tau^0| on these
    # models), where 11 Simpson nodes left 5e-9
    for sys_, pert, xs in _endpoint_models():
        row, = endpoint_transgression_check(sys_, pert, 2, xs, nodes=8, tol=1e-6)
        assert row.identity_name == "transgression.endpoint"
        assert row.samples == 8
        bot, top = tau_r_eval(PerturbedContext(sys_, pert, [0.0, 1.0]), 2, xs)
        assert row.max_residual <= 1e-12 * abs(top - bot), row.max_residual
        assert row.passed
    # True ran a 1-node rule, a false red; 2.5 ended in leggauss
    for nodes in (0, 2.5, True):
        with pytest.raises(ValueError, match="^nodes must be"):
            endpoint_transgression_check(sys_, pert, 2, xs, nodes=nodes)


def test_boundary_of_transgression_matches_finite_difference():
    # dtau^r/dr tracks -(B G + b G) to second order in the step
    sys_ = block_system(3, 2, seed=24)
    pert = odd_perturbation(sys_, scale=0.4)
    rng = np.random.default_rng(25)
    xs = even_tuple(sys_, rng, 3)
    r, h = 0.5, 1e-4
    up = tau_r_eval(PerturbedContext(sys_, pert, r + h), 2, xs)
    dn = tau_r_eval(PerturbedContext(sys_, pert, r - h), 2, xs)
    fd = (up - dn) / (2 * h)
    bg = boundary(transgression_cochain(PerturbedContext(sys_, pert, r)))(2, xs)
    assert abs(fd + bg) < 1e-6 * max(1.0, abs(bg))

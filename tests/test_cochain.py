"""Tests for cochains, the bicomplex boundary, and the heat-kernel cocycle."""

import math

import numpy as np
import pytest

import skmslab.cochain as cochain_module
from skmslab import kernels
from skmslab.cochain import (
    Cochain,
    boundary,
    connes_B,
    entireness_diagnostic,
    hochschild_b,
    jlo_cochain,
    lemma34_check,
    tau_eval,
)
from skmslab.dynamics import GradedSystem, superderivation
from skmslab.errors import ChainBudgetExceeded, DimensionMismatch, ParityViolation
from skmslab.graded import GradingOperator, Parity, as_matrix
from skmslab.perturbation import (OddPerturbation, PerturbedContext, f_identities_check,
                                  transgression_cochain)
from skmslab.report import Measurement
from skmslab.workbench import ModelSpec
from skmslab.workbench.models import build_perturbed_model
from skmslab.workbench.suites import gate


def block_system(p, q, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    d = p + q
    m = rng.standard_normal((q, p)) + 1j * rng.standard_normal((q, p))
    q0 = np.zeros((d, d), dtype=complex)
    q0[:p, p:] = m.conj().T
    q0[p:, :p] = m
    q0 *= scale / np.linalg.norm(q0, 2)
    return GradedSystem(np.diag([1.0] * p + [-1.0] * q), q0)


def even_tuple(sys_, rng, count):
    return [as_matrix(sys_.random_element(rng, parity="even")) for _ in range(count)]


def near_scalar(x, scalar):
    """True when x differs from scalar * 1, but by at most 1e-12 of its size."""
    gap = np.linalg.norm(x - scalar * np.eye(len(x)))
    return 0.0 < gap <= 1e-12 * np.linalg.norm(x)


def boundary_inputs(sys_, rng, n):
    """Even tuples at degree n: random; x_0 within 1e-14 of 2.5 times the
    unit; and (n >= 2) x_2 = x_1^-1, so x_1 x_2 is the unit up to rounding."""
    plain = even_tuple(sys_, rng, n + 1)
    near = [2.5 * np.eye(sys_.dim) + 1e-14 * plain[0]] + plain[1:]
    assert near_scalar(near[0], 2.5)
    if n < 2:
        return [plain, near]
    x1 = plain[1] + 3.0 * np.eye(sys_.dim)
    inverse = [plain[0], x1, np.linalg.inv(x1)] + plain[3:]
    assert near_scalar(x1 @ inverse[2], 1.0)
    return [plain, near, inverse]


def count_classify(monkeypatch):
    calls = []
    classify = GradingOperator.classify

    def counted(self, x):
        calls.append(np.array(x))
        return classify(self, x)

    monkeypatch.setattr(GradingOperator, "classify", counted)
    return calls


def test_cochain_gating():
    calls = []

    def evaluator(n, pool, index):
        # one tuple arrives as a table of one column into a pool of its
        # n + 1 (d, d) slots
        assert index.shape == (n + 1, 1) and pool.shape == (n + 1, 2, 2)
        calls.append(n)
        return [1.0] * index.shape[1]

    c = Cochain(evaluator, Parity.EVEN)
    x = np.diag([1.0, 2.0])
    assert c(1, [x, x]) == 0.0  # wrong parity, no evaluation
    assert calls == []
    assert c(0, [np.eye(2)]) == 1.0
    assert c(2, [x, x, x]) == 1.0
    assert calls == [0, 2]

    assert c.supports(0) and c.supports(4)
    assert not c.supports(1) and not c.supports(-2)
    with pytest.raises(ValueError):
        c(2, [x, x])  # wrong arity
    with pytest.raises(ValueError):
        Cochain(evaluator, Parity.MIXED)


def stacked_trace(a, xs, n):
    # Tr(a x_0 .. x_n) of each tuple in the (T, 3, 3) stacks xs
    prod = xs[0]
    for x in xs[1:n + 1]:
        prod = prod @ x
    return np.trace(a @ prod, axis1=1, axis2=2)


def test_hochschild_b_hand_formula():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = Cochain(lambda n, pool, index: stacked_trace(a, pool[index], 0), Parity.EVEN)
    x0 = rng.standard_normal((3, 3))
    x1 = rng.standard_normal((3, 3))
    got = hochschild_b(rho, 1, [x0, x1])
    want = np.trace(a @ (x0 @ x1)) - np.trace(a @ (x1 @ x0))
    assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        hochschild_b(rho, 0, [x0])


def test_connes_B_hand_formula():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    seen = []

    def rho(n, pool, index):
        seen.append(pool[index])
        return stacked_trace(a, pool[index], 1)

    x0 = rng.standard_normal((3, 3))
    got = connes_B(Cochain(rho, Parity.ODD), 0, [x0])
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0][0], np.eye(3)[None])
    np.testing.assert_array_equal(seen[0][1], x0[None])
    assert got == pytest.approx(np.trace(a @ x0), abs=1e-12)


def test_B_and_b_refuse_a_per_tuple_rho():
    # a rho that takes one tuple, as B and b once took it: it reads the
    # first tuple of the table and gives one value for all of them
    rho = lambda n, pool, index: np.trace(pool[index[0, 0]])
    x = np.diag([1.0, 2.0, 3.0])
    for op, n, parity in ((connes_B, 0, Parity.ODD), (hochschild_b, 1, Parity.EVEN)):
        with pytest.raises(ValueError, match="one value per tuple on the last axis"):
            op(Cochain(rho, parity), n, [x] * (n + 1))


def test_B_b_and_boundary_refuse_a_bare_evaluator():
    # rho is a Cochain, whose parity gates the terms and whose grading
    # checks the arguments
    rho = lambda n, pool, index: np.zeros(index.shape[1])
    x = np.diag([1.0, 2.0, 3.0])
    for call in (lambda: connes_B(rho, 0, [x]), lambda: hochschild_b(rho, 1, [x, x]),
                 lambda: boundary(rho)):
        with pytest.raises(TypeError, match="Cochain"):
            call()


def test_B_and_boundary_hand_rho_only_what_their_terms_read():
    # B's terms read the arguments and the unit, not the products
    # x_j x_{j+1} and x_n x_0 that only b reads; boundary at degree 0,
    # where b is left out, is one call of rho on the same pool
    sizes = []

    def evaluator(n, pool, index):
        sizes.append(len(pool))
        return np.zeros(index.shape[1])

    odd, even = Cochain(evaluator, Parity.ODD), Cochain(evaluator, Parity.EVEN)
    rng = np.random.default_rng(46)
    for n, rho in ((0, odd), (1, even), (3, even), (4, odd)):
        xs = list(rng.standard_normal((n + 1, 7, 3, 3)))
        del sizes[:]
        connes_B(rho, n, xs)
        assert sizes == [7 * (n + 1) + 1], n
    del sizes[:]
    boundary(odd)(0, [rng.standard_normal((7, 3, 3))])
    assert sizes == [7 + 1]


def test_hochschild_b_squares_to_zero():
    # simplicial identity; holds for any multilinear functional
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    def rho(n, pool, index):
        return stacked_trace(a, pool[index], n) * (0.7 ** n)

    xs = [rng.standard_normal((3, 3)) for _ in range(4)]
    # outer b at degree 3 asks the inner b at degree 2, which asks rho at 1
    inner = Cochain(lambda n, pool, index: hochschild_b(Cochain(rho, Parity.ODD), n,
                                                        list(pool[index])), Parity.EVEN)
    bb = hochschild_b(inner, 3, xs)
    assert abs(bb) < 1e-12


def test_boundary_squares_to_zero_on_tau():
    sys_ = block_system(3, 2, seed=4)
    tau = jlo_cochain(sys_)
    ddtau = boundary(boundary(tau))
    rng = np.random.default_rng(5)
    for n in (0, 2):
        xs = even_tuple(sys_, rng, n + 1)
        assert abs(ddtau(n, xs)) < 1e-10


def test_tau_normalization_and_parity():
    sys_ = block_system(3, 2, seed=6)
    assert tau_eval(sys_, 0, [np.eye(5)]) == pytest.approx(1.0, abs=1e-14)
    rng = np.random.default_rng(7)
    xs = even_tuple(sys_, rng, 2)
    assert tau_eval(sys_, 1, xs) == 0.0  # odd degree short-circuits
    with pytest.raises(ParityViolation):
        tau_eval(sys_, 2, [as_matrix(sys_.random_element(rng))] + xs)
    with pytest.raises(ValueError):
        tau_eval(sys_, 2, xs)  # arity


def test_tau_0_is_the_chain_kernel_contraction(monkeypatch):
    # tau_0(x) = Tr(Gamma x e^{-H}) / Z from chain_integral at n = 0, as
    # every other degree, not from a second route through phi
    sys_ = block_system(3, 2, seed=6)
    x = even_tuple(sys_, np.random.default_rng(7), 1)[0]
    calls = []
    chain = cochain_module.chain_integral

    def spied(*args, **kwargs):
        calls.append(len(args[1]))
        return chain(*args, **kwargs)

    monkeypatch.setattr(cochain_module, "chain_integral", spied)
    want = kernels.chain_integral(sys_.spectrum, [x], sys_.grading) / sys_.witten_index
    assert tau_eval(sys_, 0, [x]) == want
    assert calls == [1]


@pytest.mark.parametrize("call", [
    lambda sys_, tau: tau(-1, []),
    lambda sys_, tau: boundary(tau)(-1, []),
    lambda sys_, tau: connes_B(tau, -1, []),
    lambda sys_, tau: hochschild_b(tau, 0, [np.eye(5)]),
    lambda sys_, tau: tau(1.0, [np.eye(5)] * 2),
    lambda sys_, tau: lemma34_check(sys_, n=0),
    lambda sys_, tau: f_identities_check(PerturbedContext(
        sys_, OddPerturbation(sys_.supercharge, sys_.grading), 0.5), n=0),
], ids=["tau", "boundary", "connes_B", "hochschild_b", "float_degree",
        "lemma34_check", "f_identities_check"])
def test_degrees_out_of_range_are_refused(call):
    # an IndexError, a false red F.heat_commutator_last from the slice
    # xs[:n - 1] at n = 0, and max() of an empty sequence before
    sys_ = block_system(3, 2, seed=6)
    with pytest.raises(ValueError, match=r"(degree|n) must be (an integer|at least)"):
        call(sys_, jlo_cochain(sys_))


def test_tau_refuses_elements_of_another_dimension():
    # used to end in numpy's matmul core-dimension error inside classify
    sys_ = block_system(3, 2, seed=6)
    with pytest.raises(DimensionMismatch, match="dimension 3 .* dimension 5"):
        tau_eval(sys_, 2, [np.eye(3)] * 3)


def test_tau_scalar_slot_is_exact_zero():
    sys_ = block_system(3, 2, seed=8)
    rng = np.random.default_rng(9)
    x = even_tuple(sys_, rng, 1)[0]
    val = tau_eval(sys_, 2, [x, 2.5 * np.eye(5), x])
    assert val == 0.0 and val.imag == 0.0


@pytest.mark.parametrize("c", [2.5, -1.5, 1j, 1e3, 0.1 + 0.3j])
def test_scalar_slots_vanish_through_delta(builder_calls, c):
    # tau (n = 2, 4) and G^r (m = 1, 3, on three couplings) with c 1 in a
    # slot i >= 1: the chain reads delta_r(c 1) = 0 there, with no test for
    # scalar slots.  Q c - c Q is exactly 0 for real and purely imaginary c;
    # for a general complex c the two complex products round apart
    from skmslab.perturbation import PerturbedContext, transgression_cochain

    sys_ = block_system(3, 2, seed=8)
    rng = np.random.default_rng(40)
    q = as_matrix(sys_.random_element(rng, parity="odd"))
    ctx = PerturbedContext(sys_, 0.4 * (q + q.conj().T) / 2, [0.0, 0.5, 1.0])
    values = []
    for cochain, degrees in ((jlo_cochain(sys_), (2, 4)),
                             (transgression_cochain(ctx), (1, 3))):
        for n in degrees:
            xs = even_tuple(sys_, rng, n + 1)
            for slot in range(1, n + 1):
                args = list(xs)
                args[slot] = c * np.eye(sys_.dim)
                values.append(cochain(n, args))
    # every value came from the chain: one builder call each
    assert len(builder_calls) == len(values) == 2 + 4 + 1 + 3
    worst = max(float(np.max(np.abs(v))) for v in values)
    if c.imag == 0.0 or c.real == 0.0:
        assert worst == 0.0
    else:
        assert worst <= 1e-15 * abs(c)


def test_tau_against_quadrature_oracle():
    from skmslab.dynamics import superderivation
    from skmslab.kernels import (SimplexQuadratureRule, heat_chain_integrand,
                                 simplex_quadrature)

    sys_ = block_system(2, 1, seed=10)
    rng = np.random.default_rng(11)
    xs = even_tuple(sys_, rng, 3)
    exact = tau_eval(sys_, 2, xs)
    chain = [xs[0]] + [as_matrix(superderivation(sys_, x)) for x in xs[1:]]
    f = heat_chain_integrand(sys_.spectrum, chain, sys_.grading)
    val, err = simplex_quadrature(
        f, 2, SimplexQuadratureRule("gauss", 12))
    assert abs(exact - val / sys_.witten_index) < max(10 * err, 1e-9)


def test_tau_budget_pass_through(monkeypatch):
    sys_ = block_system(3, 2, seed=12)
    rng = np.random.default_rng(13)
    xs = even_tuple(sys_, rng, 3)
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", "4.0")
    with pytest.raises(ChainBudgetExceeded):
        tau_eval(sys_, 2, xs)


def test_cocycle_identity_small_model():
    # (B + b) tau = 0 at odd degrees; the core statement
    sys_ = block_system(3, 2, seed=14)
    dtau = boundary(jlo_cochain(sys_))
    rng = np.random.default_rng(15)
    worst = 0.0
    for n in (1, 3):
        for _ in range(5):
            xs = even_tuple(sys_, rng, n + 1)
            worst = max(worst, abs(dtau(n, xs)))
    assert worst < 1e-10


def test_boundary_bookkeeping():
    sys_ = block_system(2, 1, seed=16)
    d = boundary(jlo_cochain(sys_))
    assert d.parity is Parity.ODD
    assert "boundary" in repr(d)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_of_tau_names_the_odd_slot(n):
    # checked at every degree, also at n = 2 where boundary(tau) is 0
    sys_ = block_system(3, 2, seed=21)
    dtau = boundary(jlo_cochain(sys_))
    rng = np.random.default_rng(22)
    for slot in range(n + 1):
        xs = even_tuple(sys_, rng, n + 1)
        xs[slot] = as_matrix(sys_.random_element(rng, parity="odd"))
        with pytest.raises(ParityViolation, match="slot %d is not even" % slot):
            dtau(n, xs)


def test_boundary_of_tau_equals_B_plus_b_of_checked_tau():
    # the checked-once inner path gives the bits of the public, checked tau
    sys_ = block_system(3, 2, seed=23)
    tau = jlo_cochain(sys_)
    dtau = boundary(tau)
    rng = np.random.default_rng(24)
    for n in (1, 3):
        for xs in boundary_inputs(sys_, rng, n):
            want = connes_B(tau, n, xs) + hochschild_b(tau, n, xs)
            assert dtau(n, xs) == want, n


def test_boundary_evaluator_on_stacks_equals_each_tuple(builder_calls):
    # connes_B and hochschild_b on stacks: the tuples' surviving terms are
    # one stack per degree, with the bits of the tuples taken one by one
    sys_ = block_system(3, 2, seed=23)
    dtau = boundary(jlo_cochain(sys_))
    rng = np.random.default_rng(31)
    for n in (1, 3):
        tuples = boundary_inputs(sys_, rng, n) + [even_tuple(sys_, rng, n + 1)
                                                  for _ in range(4)]
        want = [dtau(n, xs) for xs in tuples]
        del builder_calls[:]
        pool, (index,) = cochain_module._pool_of([[np.stack(slot) for slot in zip(*tuples)]])
        got = dtau.evaluator(n, pool, index)
        assert list(got) == want, n
        assert len(builder_calls) == (1 if n == 1 else 2), n


def per_term_B(n, xs):
    # (sign, stacks at degree n + 1) of each term of (B rho)_n with every
    # slot of every term a copy of its own, as B built its terms before
    # they shared one pool
    unit = np.broadcast_to(np.eye(xs[0].shape[-1], dtype=complex), xs[0].shape)
    return [((-1) ** (n * j), [unit.copy()] + [x.copy() for x in xs[j:] + xs[:j]])
            for j in range(n + 1)]


def per_term_b(n, xs):
    # (sign, stacks at degree n - 1) of each term of (b rho)_n, every slot
    # of every term a copy of its own
    terms = [((-1) ** j, [x.copy() for x in xs[:j]] + [xs[j] @ xs[j + 1]]
              + [x.copy() for x in xs[j + 2:]]) for j in range(n)]
    terms.append(((-1) ** n, [xs[n] @ xs[0]] + [x.copy() for x in xs[1:n]]))
    return terms


def per_term_boundary(rho, n, xs):
    # (B + b) rho at the (T, d, d) stacks xs, rho called on each term alone
    # and the signed values summed in order: the reference for the pool
    total = sum((sign * rho(n + 1, args) for sign, args in per_term_B(n, xs)),
                0.0 + 0.0j)
    if n >= 1:
        total = total + sum((sign * rho(n - 1, args) for sign, args in per_term_b(n, xs)),
                            0.0 + 0.0j)
    return total


@pytest.mark.parametrize("n", [3, 5])
def test_one_tuple_B_and_b_make_one_builder_call(builder_calls, n):
    # the n + 1 terms of one tuple are one table for rho: one call of the
    # block builder, not one per term, with the bits of the signed sum of
    # the terms taken one by one, in order
    sys_ = block_system(3, 2, seed=23)
    tau = jlo_cochain(sys_)
    xs = even_tuple(sys_, np.random.default_rng(34), n + 1)
    stacks = [x[None] for x in xs]
    for op, terms, m in ((connes_B, per_term_B, n + 1),
                         (hochschild_b, per_term_b, n - 1)):
        want = sum((sign * tau(m, [a[0] for a in args])
                    for sign, args in terms(n, stacks)), 0.0 + 0.0j)
        del builder_calls[:]
        assert op(tau, n, xs) == want
        assert builder_calls == [(n + 1, (m + 1) * sys_.dim)]


REFERENCE_SPECS = (
    ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
              perturbation={"seed": 11, "scale": 0.3}),
    ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1, scale=1.0),
)


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_boundary_on_a_pool_equals_the_per_term_evaluation(spec):
    # boundary(tau) and boundary(G^r) on 25 tuples, against the terms
    # evaluated one by one with a copy of every slot: bit for bit, on the
    # system and on three couplings.  boundary(G^r) is even, so it is read
    # at the even degrees
    sys_, pert = build_perturbed_model(spec, 0)
    ctx = PerturbedContext(sys_, pert, [0.0, 0.5, 1.0])
    rng = np.random.default_rng(41)
    for rho, degrees in ((jlo_cochain(sys_), (1, 3, 5)), (jlo_cochain(ctx), (1, 3, 5)),
                         (transgression_cochain(ctx), (0, 2, 4))):
        for n in degrees:
            xs = list(sys_.random_elements(rng, 25 * (n + 1), parity=Parity.EVEN)
                      .reshape(n + 1, 25, sys_.dim, sys_.dim))
            got = boundary(rho)(n, xs)
            assert got.shape == rho.couplings + (25,)
            assert np.array_equal(got, per_term_boundary(rho, n, xs)), (rho.name, n)


def test_boundary_differentiates_and_transforms_each_distinct_matrix_once(monkeypatch):
    # n = 5, T = 25: B reads the 150 arguments behind one unit, b the 125
    # x_1..x_5 and the 100 products x_j x_{j+1}, 0 < j < 5, at slots >= 1
    # and the 75 x_0, x_0 x_1, x_5 x_0 at slot 0.  With a copy per slot of
    # every term, delta took 1500 matrices and the eigenbasis 1800
    counts = {"delta": 0, "eigenbasis": 0}

    def counting(key, fn):
        def counted(*args):
            out = fn(*args)
            counts[key] += math.prod(out.shape[:-2])
            return out
        return counted

    sys_ = block_system(3, 2, seed=42)
    xs = list(sys_.random_elements(np.random.default_rng(43), 150, parity=Parity.EVEN)
              .reshape(6, 25, 5, 5))
    dtau = boundary(jlo_cochain(sys_))
    monkeypatch.setattr(cochain_module, "_superderivation_stack",
                        counting("delta", cochain_module._superderivation_stack))
    monkeypatch.setattr(kernels.Spectrum, "to_eigenbasis",
                        counting("eigenbasis", kernels.Spectrum.to_eigenbasis))
    dtau(5, xs)
    assert counts == {"delta": 150 + 225, "eigenbasis": 151 + 300}


@pytest.mark.parametrize("call", [
    lambda tau, a, b, c: tau(2, [a, b, c]),
    lambda tau, a, b, c: boundary(tau)(1, [a, b]),
    lambda tau, a, b, c: connes_B(tau, 1, [a, b]),
    lambda tau, a, b, c: hochschild_b(tau, 1, [a, b]),
], ids=["tau", "boundary", "connes_B", "hochschild_b"])
def test_stacks_of_different_lengths_are_refused(monkeypatch, call):
    # 3, 2 and 3 tuples per slot ended in numpy's inhomogeneous-shape or
    # broadcast ValueError; a pool of them would be indexed wrong silently
    sys_ = block_system(3, 2, seed=44)
    rng = np.random.default_rng(45)
    a, b, c = (sys_.random_elements(rng, k, parity=Parity.EVEN) for k in (3, 2, 3))
    tau = jlo_cochain(sys_)
    classify = count_classify(monkeypatch)
    with pytest.raises(DimensionMismatch, match=r"stacks of one shape, got "
                       r"\[\(3, 5, 5\), \(2, 5, 5\)"):
        call(tau, a, b, c)
    assert classify == []


def test_boundary_classifies_each_argument_once(monkeypatch):
    # one classify call per boundary call, on all (n + 1) T arguments,
    # slot by slot: one tuple, and stacks of T = 3 tuples
    sys_ = block_system(3, 2, seed=25)
    dtau = boundary(jlo_cochain(sys_))
    rng = np.random.default_rng(26)
    calls = count_classify(monkeypatch)
    for n in (1, 3):
        for xs in (even_tuple(sys_, rng, n + 1),
                   [sys_.random_elements(rng, 3, parity=Parity.EVEN) for _ in range(n + 1)]):
            del calls[:]
            dtau(n, xs)
            assert len(calls) == 1
            assert np.array_equal(calls[0], np.concatenate([np.reshape(x, (-1,) + x.shape[-2:])
                                                            for x in xs]))


def test_boundary_of_tau_makes_one_exponential_call_per_degree(builder_calls):
    # n = 1: two B terms at degree 2, b terms at degree 0 need none;
    # n = 3: four B terms at degree 4 and four b terms at degree 2
    sys_ = block_system(3, 2, seed=27)
    dtau = boundary(jlo_cochain(sys_))
    rng = np.random.default_rng(28)
    for n, want in ((1, [(2, 15)]), (3, [(4, 25), (4, 15)])):
        xs = even_tuple(sys_, rng, n + 1)
        del builder_calls[:]
        dtau(n, xs)
        assert builder_calls == want, n


def test_boundary_prices_each_exponential_not_the_batch(monkeypatch):
    # the four B terms at n = 3 are four 25x25 exponentials in one call:
    # the budget sees 25^3, not 4 * 25^3
    sys_ = block_system(3, 2, seed=29)
    xs = even_tuple(sys_, np.random.default_rng(30), 4)
    dtau = boundary(jlo_cochain(sys_))
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", str(25.0 ** 3 - 1.0))
    with pytest.raises(ChainBudgetExceeded,
                       match=r"d=5, n=4 needs a 25x25 block exponential of cost 25\^3"):
        dtau(3, xs)
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", str(25.0 ** 3))
    assert abs(dtau(3, xs)) < 1e-10


def indicators(measurements):
    # the indicator rows of entireness_diagnostic, by degree
    return {m.identity_name: m.max_residual for m in measurements
            if m.identity_name.startswith("entireness.indicator_n")}


def test_entireness_rows_cover_every_even_degree_to_the_top():
    sys_ = block_system(3, 2, seed=17, scale=0.8)
    rows = entireness_diagnostic(sys_, samples=4, seed=0)
    assert all(type(m) is Measurement for m in rows)
    assert [m[:3] for m in rows] == (
        [("entireness.indicator_n%d" % n, "norm", 4) for n in (2, 4, 6, 8, 10, 12)]
        + [("entireness.monotone", "norm", 24), ("entireness.jlo_bound", "norm", 24)])
    assert cochain_module.ENTIRENESS_TOP == 12
    assert all(v > 0.0 for v in indicators(rows).values())
    assert rows[-1].max_residual == 0.0


def test_entireness_diagnostic_takes_no_degrees():
    sys_ = block_system(3, 2, seed=17, scale=0.8)
    with pytest.raises(TypeError, match="degrees"):
        entireness_diagnostic(sys_, degrees=(2, 4), samples=2)


def test_entireness_diagnostic_monotone_in_samples():
    sys_ = block_system(3, 2, seed=17, scale=0.8)
    small = entireness_diagnostic(sys_, samples=6, seed=3)
    large = entireness_diagnostic(sys_, samples=12, seed=3)
    for name, lo in indicators(small).items():
        assert indicators(large)[name] >= lo > 0.0
    again = entireness_diagnostic(sys_, samples=6, seed=3)
    assert again == small


@pytest.mark.parametrize("samples", [0, -3, 2.5, True])
def test_entireness_diagnostic_refuses_samples_below_one_before_any_draw(
        monkeypatch, samples):
    # samples = 0 read a norm of 0 at every degree, an indicator that decays
    sys_ = block_system(3, 2, seed=17, scale=0.8)
    draws = []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="samples must be .*, got %r" % (samples,)):
        entireness_diagnostic(sys_, samples=samples)
    assert draws == []


def test_entireness_diagnostic_is_one_exponential_call(builder_calls):
    # every degree of every sample off one block row of 13 blocks
    sys_ = block_system(3, 2, seed=17, scale=0.8)
    entireness_diagnostic(sys_, samples=5, seed=3)
    assert builder_calls == [(5, 13 * sys_.dim)]


def _entireness_slots_drawn_slot_by_slot(sys_, samples, seed):
    # the 13 (samples, d, d) slot stacks of entireness_diagnostic as drawn
    # before one draw per sample: the four generators one by one, and two
    # standard_normal(G) calls per slot, the real part then the imaginary one
    gen_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6E)))
    generators = [sys_.random_element(gen_rng, parity=Parity.EVEN) for _ in range(4)]
    draws = []
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        draws += [rng.standard_normal(len(generators))
                  + 1j * rng.standard_normal(len(generators))
                  for _ in range(13)]
    coeffs = np.array(draws).T[:, :, None, None]
    mats = cochain_module._graph_normalize(
        sys_, sum(c * g for c, g in zip(coeffs, generators)))
    return list(mats.reshape(samples, 13, sys_.dim, sys_.dim).swapaxes(0, 1))


def test_entireness_diagnostic_draws_each_sample_in_one_call(monkeypatch):
    # one standard_normal((13, 2, G)) per sample is the same stream as 26
    # calls of standard_normal(G), so the slots keep their bits; and each
    # indicator is that of tau_n on the prefixes, evaluated degree by degree
    sys_ = block_system(3, 2, seed=17, scale=0.8)
    seen = []
    prefixes = cochain_module._chain_prefixes
    monkeypatch.setattr(cochain_module, "_chain_prefixes",
                        lambda spec, pool, g, index: (seen.append(pool[index])
                                                      or prefixes(spec, pool, g, index)))
    got = indicators(entireness_diagnostic(sys_, samples=6, seed=3))
    slots = _entireness_slots_drawn_slot_by_slot(sys_, 6, 3)
    derived = [slots[0]] + [superderivation(sys_, x) for x in slots[1:]]
    assert all(np.array_equal(a, b) for a, b in zip(seen[0], derived, strict=True))
    for n in (2, 4, 6, 8, 10, 12):
        tau = jlo_cochain(sys_)(n, slots[:n + 1])
        want = np.sqrt(n) * np.abs(tau).max() ** (1.0 / n)
        assert got["entireness.indicator_n%d" % n] == pytest.approx(want, rel=1e-13, abs=0)


def test_duffy_rule_is_built_once_per_order_and_degree(monkeypatch):
    s, w = kernels._duffy_points(8, 3)
    fresh = kernels._duffy_points.__wrapped__(8, 3)
    assert np.array_equal(s, fresh[0]) and np.array_equal(w, fresh[1])
    assert not s.flags.writeable and not w.flags.writeable
    assert kernels._duffy_points(8, 3)[0] is s
    # lemma34_check integrates 12 times on Delta_3 with the order-8 rule and
    # its order-6 error estimate: each rule is built once
    kernels._duffy_points.cache_clear()
    orders = []
    build = kernels.gauss_legendre_01

    def counted(order):
        orders.append(order)
        return build(order)

    monkeypatch.setattr(kernels, "gauss_legendre_01", counted)
    lemma34_check(block_system(3, 2, seed=20), n=2, samples=6)
    assert sorted(orders) == [6, 8]


def test_lemma34_rows_pass():
    sys_ = block_system(3, 2, seed=20)
    measured = lemma34_check(sys_, n=2, samples=4, seed=2)
    # measurements carry no verdict and no stamp:
    # test_all_suite_rows_are_pinned checks the stamps
    assert all(type(m) is Measurement for m in measured)
    rows = gate(measured, 1e-8)
    assert [r.identity_name for r in rows] == ["chain.rotation", "chain.slot_derivative"]
    for r in rows:
        assert r.passed, (r.identity_name, r.max_residual)

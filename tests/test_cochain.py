"""Tests for cochains, the bicomplex boundary, and the heat-kernel cocycle."""

import numpy as np
import pytest

import skmslab.cochain as cochain_module
from skmslab import kernels
from skmslab.cochain import (
    Cochain,
    NormEstimate,
    boundary,
    connes_B,
    entireness_diagnostic,
    hochschild_b,
    is_scalar_slot,
    jlo_cochain,
    lemma34_check,
    tau_eval,
)
from skmslab.dynamics import GradedSystem
from skmslab.errors import ChainBudgetExceeded, DimensionMismatch, ParityViolation
from skmslab.graded import GradingOperator, Parity, as_matrix
from skmslab.report import Measurement
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


def boundary_inputs(sys_, rng, n):
    """Even tuples at degree n: random; x_0 scalar only within the slot
    tolerance; and (n >= 2) x_2 = x_1^-1, so x_1 x_2 is scalar up to rounding."""
    plain = even_tuple(sys_, rng, n + 1)
    near = [2.5 * np.eye(sys_.dim) + 1e-14 * plain[0]] + plain[1:]
    assert is_scalar_slot(near[0]) and np.any(near[0] != 2.5 * np.eye(sys_.dim))
    if n < 2:
        return [plain, near]
    x1 = plain[1] + 3.0 * np.eye(sys_.dim)
    inverse = [plain[0], x1, np.linalg.inv(x1)] + plain[3:]
    assert is_scalar_slot(x1 @ inverse[2])
    return [plain, near, inverse]


def count_classify(monkeypatch):
    calls = []
    classify = GradingOperator.classify

    def counted(self, x):
        calls.append(1)
        return classify(self, x)

    monkeypatch.setattr(GradingOperator, "classify", counted)
    return calls


def test_is_scalar_slot():
    assert is_scalar_slot(np.eye(3))
    assert is_scalar_slot(2.5j * np.eye(4))
    assert is_scalar_slot(np.zeros((2, 2)))
    assert not is_scalar_slot(np.diag([1.0, 2.0]))
    bumped = np.eye(3) + 1e-15 * np.ones((3, 3))
    assert is_scalar_slot(bumped)


def test_cochain_gating():
    calls = []

    def evaluator(n, stacks):
        # one tuple arrives as a batch of one: a (1, d, d) stack per slot
        assert [s.shape for s in stacks] == [(1, 2, 2)] * (n + 1)
        calls.append(n)
        return [1.0] * len(stacks[0])

    c = Cochain(evaluator, Parity.EVEN)
    x = np.diag([1.0, 2.0])
    assert c(1, [x, x]) == 0.0  # wrong parity, no evaluation
    assert c(2, [x, x, 3.0 * np.eye(2)]) == 0.0  # scalar slot >= 1
    assert calls == []
    assert c(0, [np.eye(2)]) == 1.0  # slot 0 may be scalar
    assert c(2, [x, x, x]) == 1.0
    assert calls == [0, 2]

    assert c.supports(0) and c.supports(4)
    assert not c.supports(1) and not c.supports(-2)
    with pytest.raises(ValueError):
        c(2, [x, x])  # wrong arity
    with pytest.raises(ValueError):
        Cochain(evaluator, Parity.MIXED)


def test_hochschild_b_hand_formula():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = lambda n, xs: np.trace(a @ xs[0]) if n == 0 else 0.0
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

    def rho(n, xs):
        seen.append([np.asarray(x).copy() for x in xs])
        return np.trace(a @ xs[0] @ xs[1])

    x0 = rng.standard_normal((3, 3))
    got = connes_B(rho, 0, [x0])
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0][0], np.eye(3))
    np.testing.assert_array_equal(seen[0][1], x0)
    assert got == pytest.approx(np.trace(a @ x0), abs=1e-12)


def test_hochschild_b_squares_to_zero():
    # simplicial identity; holds for any multilinear functional
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    def rho(n, xs):
        prod = xs[0]
        for x in xs[1:]:
            prod = prod @ x
        return np.trace(a @ prod) * (0.7 ** n)

    xs = [rng.standard_normal((3, 3)) for _ in range(4)]
    # outer b at degree 3 asks the inner b at degree 2, which asks rho at 1
    bb = hochschild_b(lambda n, ys: hochschild_b(rho, n, ys), 3, xs)
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
        got = dtau.evaluator(n, [np.stack(slot) for slot in zip(*tuples)])
        assert list(got) == want, n
        assert len(builder_calls) == (1 if n == 1 else 2), n


def test_boundary_classifies_each_argument_once(monkeypatch):
    sys_ = block_system(3, 2, seed=25)
    dtau = boundary(jlo_cochain(sys_))
    rng = np.random.default_rng(26)
    calls = count_classify(monkeypatch)
    for n in (1, 3):
        xs = even_tuple(sys_, rng, n + 1)
        del calls[:]
        dtau(n, xs)
        assert len(calls) == n + 1


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


def test_norm_estimate_indicator():
    est = NormEstimate(degree=4, sampled_norm=0.0, samples=8)
    assert est.growth_indicator == 0.0
    est2 = NormEstimate(degree=4, sampled_norm=1e-4, samples=8)
    assert est2.growth_indicator == pytest.approx(2.0 * 1e-1)


def test_entireness_diagnostic_monotone_in_samples():
    sys_ = block_system(3, 2, seed=17, scale=0.8)
    small = entireness_diagnostic(sys_, degrees=(2, 4), samples=6, seed=3)
    large = entireness_diagnostic(sys_, degrees=(2, 4), samples=12, seed=3)
    for lo, hi in zip(small, large):
        assert hi.sampled_norm >= lo.sampled_norm
    again = entireness_diagnostic(sys_, degrees=(2, 4), samples=6, seed=3)
    assert again == small


def test_entireness_diagnostic_custom_generators():
    sys_ = block_system(2, 1, seed=18)
    rng = np.random.default_rng(19)
    gens = [as_matrix(sys_.random_element(rng, parity="even")) for _ in range(2)]
    out = entireness_diagnostic(sys_, generators=gens, degrees=(2,), samples=4, seed=0)
    assert len(out) == 1 and out[0].degree == 2
    assert out[0].sampled_norm > 0.0


def test_entireness_diagnostic_rejects_odd_generator_first(monkeypatch):
    sys_ = block_system(2, 1, seed=18)
    rng = np.random.default_rng(19)
    gens = [as_matrix(sys_.random_element(rng, parity="even")),
            as_matrix(sys_.random_element(rng, parity="odd"))]
    chains = []
    chain = cochain_module.chain_integral

    def spied(*args, **kwargs):
        chains.append(args)
        return chain(*args, **kwargs)

    monkeypatch.setattr(cochain_module, "chain_integral", spied)
    with pytest.raises(ParityViolation, match="slot 1 is not even"):
        entireness_diagnostic(sys_, generators=gens, degrees=(2,), samples=2)
    assert chains == []
    # the spy watches the name the diagnostic calls: an even generator reaches it
    entireness_diagnostic(sys_, generators=gens[:1], degrees=(2,), samples=2)
    assert len(chains) == 1


def test_entireness_diagnostic_one_exponential_call_per_degree(builder_calls):
    sys_ = block_system(3, 2, seed=17, scale=0.8)
    entireness_diagnostic(sys_, degrees=(2, 4, 6), samples=5, seed=3)
    assert builder_calls == [(5, 15), (5, 25), (5, 35)]


def _entireness_with_slot_by_slot_draws(sys_, degrees, samples, seed):
    # entireness_diagnostic as it drew before: two standard_normal(G) calls
    # per slot, the real part then the imaginary one
    gen_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6E)))
    generators = [sys_.random_element(gen_rng, parity=Parity.EVEN) for _ in range(4)]
    out = []
    for n in degrees:
        best = 0.0
        if n % 2 == 0:
            draws = []
            for i in range(samples):
                rng = np.random.default_rng(np.random.SeedSequence((seed, n, i)))
                draws += [rng.standard_normal(len(generators))
                          + 1j * rng.standard_normal(len(generators))
                          for _ in range(n + 1)]
            coeffs = np.array(draws).T[:, :, None, None]
            mats = cochain_module._graph_normalize(
                sys_, sum(c * g for c, g in zip(coeffs, generators)))
            stacks = list(mats.reshape(-1, n + 1, sys_.dim, sys_.dim).swapaxes(0, 1))
            keep = ~cochain_module._scalar_slots(stacks[1:], samples).any(axis=0)
            values = cochain_module._chain_values(sys_, n, [s[keep] for s in stacks])
            best = max([best] + [abs(v) for v in values.tolist()])
        out.append(NormEstimate(degree=n, sampled_norm=best, samples=samples))
    return out


def test_entireness_diagnostic_draws_each_sample_in_one_call():
    # one standard_normal((n + 1, 2, G)) per sample is the same stream as
    # 2 (n + 1) calls of standard_normal(G), so the estimates keep their bits
    sys_ = block_system(3, 2, seed=17, scale=0.8)
    got = entireness_diagnostic(sys_, degrees=(2, 4), samples=6, seed=3)
    assert got == _entireness_with_slot_by_slot_draws(sys_, (2, 4), 6, 3)
    assert all(e.sampled_norm > 0.0 for e in got)


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

"""Tests for the graded matrix algebra layer."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skmslab.perturbation as perturbation_module
from skmslab.dynamics import GradedSystem
from skmslab.errors import DimensionMismatch, ParityViolation
from skmslab.graded import (
    GradingOperator,
    Parity,
    as_matrix,
    frobenius_norms,
    graded_commutator,
    parity_split,
    spectral_norms,
    supertrace,
)


def block_grading(p, q):
    return GradingOperator(np.diag([1.0] * p + [-1.0] * q))


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_grading_validation():
    g = block_grading(2, 1)
    assert g.dim == 3
    np.testing.assert_array_equal(g.matrix, np.diag([1.0, 1.0, -1.0]))

    with pytest.raises(ValueError, match="selfadjoint"):
        GradingOperator([[1, 1], [0, -1]])
    with pytest.raises(ValueError, match="involution"):
        GradingOperator(np.diag([2.0, -1.0]))
    with pytest.raises(ValueError, match="trivial"):
        GradingOperator(np.eye(3))
    with pytest.raises(DimensionMismatch):
        GradingOperator(np.ones((2, 3)))


_GAMMA = np.diag([1.0, 1.0, -1.0])
_ODD = np.zeros((3, 3), dtype=complex)
_ODD[0, 2] = _ODD[2, 0] = 1.0
_ODD_NOT_SELFADJOINT = np.triu(_ODD)


def _a_r_with_wrong_delta(monkeypatch):
    # delta(x) = Q0 x + gamma(x) Q0 makes delta(Q) antiselfadjoint, so a_r
    # fails at every coupling but r = 0
    def wrong_delta(system, x):
        return system.supercharge @ x + system.gamma(x) @ system.supercharge
    monkeypatch.setattr(perturbation_module, "superderivation", wrong_delta)
    q = np.zeros((3, 3))
    q[1, 2] = q[2, 1] = 1.0
    perturbation_module.PerturbedContext(GradedSystem(_GAMMA, _ODD), q, [0.0, 0.0, 0.7])


@pytest.mark.parametrize("build, message", [
    (lambda mp: GradingOperator([[1, 1], [0, -1]]), "grading operator must be selfadjoint"),
    (lambda mp: GradedSystem(_GAMMA, _ODD_NOT_SELFADJOINT), "supercharge must be selfadjoint"),
    (lambda mp: GradedSystem(_GAMMA, np.diag([1.0, 2.0, 3.0])), "supercharge must be odd"),
    (lambda mp: perturbation_module.OddPerturbation(_ODD_NOT_SELFADJOINT, GradingOperator(_GAMMA)),
     "perturbation must be selfadjoint"),
    (lambda mp: perturbation_module.OddPerturbation(np.eye(3), GradingOperator(_GAMMA)),
     "perturbation must be odd"),
    # Q0's even part, within Q0's tolerance, squares to an odd part of H
    # beyond H's: 2b against 1e-12 for Q0, 4b against 1e-12 for H
    (lambda mp: GradedSystem(np.diag([1.0, -1.0]), [[4e-13, 1.0], [1.0, 4e-13]]),
     "Hamiltonian must be even"),
    (_a_r_with_wrong_delta, r"a_r must be selfadjoint at coupling 2 \(r = 0\.7\)"),
], ids=["grading", "supercharge_selfadjoint", "supercharge_odd", "perturbation_selfadjoint",
        "perturbation_odd", "hamiltonian_even", "a_r_at_coupling"])
def test_every_operator_of_a_model_is_refused_by_noun_and_property(monkeypatch, build,
                                                                   message):
    # the one validator, graded._require_selfadjoint, behind every caller
    with pytest.raises(ParityViolation, match="^%s$" % message):
        build(monkeypatch)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build, noun", [
    (lambda m: GradingOperator(np.diag([1.0, 1.0, -1.0]) + m), "grading operator"),
    (lambda m: GradedSystem(_GAMMA, _ODD + m + m.T), "supercharge"),
    (lambda m: perturbation_module.OddPerturbation(_ODD + m + m.T, GradingOperator(_GAMMA)),
     "perturbation"),
], ids=["grading", "supercharge", "perturbation"])
def test_an_entry_that_is_not_finite_is_refused_before_any_arithmetic(build, noun, value):
    # a NaN passes every test of a norm, and inf - inf would warn
    m = np.zeros((3, 3))
    m[0, 2] = value
    with pytest.raises(ParityViolation, match="^%s must be finite$" % noun):
        build(m)


def test_grading_matrix_is_readonly():
    g = block_grading(1, 1)
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 5.0


def test_nondiagonal_grading_accepted():
    # any selfadjoint unitary involution != 1 qualifies, e.g. a swap
    g = GradingOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert g.classify(x) is Parity.ODD


def test_classify_block_structure():
    g = block_grading(2, 2)
    even = np.zeros((4, 4), dtype=complex)
    even[:2, :2] = 1.0
    even[2:, 2:] = 2.0
    odd = np.zeros((4, 4), dtype=complex)
    odd[:2, 2:] = 1.0 + 2j
    assert g.classify(even) is Parity.EVEN
    assert g.classify(odd) is Parity.ODD
    assert g.classify(even + odd) is Parity.MIXED
    # zero is both even and odd; classify picks even
    assert g.classify(np.zeros((4, 4))) is Parity.EVEN


def test_a_supercharge_whose_squares_overflow_is_refused_as_not_selfadjoint():
    # entries 1e155 square past the largest float; the lone even entry 1e150
    # has no mirror, so Q0 is not selfadjoint.  Unscaled, ||Q0||_F was inf,
    # the tolerance inf, and the build died in an overflow warning
    q0 = np.zeros((3, 3))
    q0[0, 2] = q0[2, 0] = q0[1, 2] = q0[2, 1] = 1e155
    q0[0, 1] = 1e150
    with pytest.raises(ParityViolation, match="^supercharge must be selfadjoint$"):
        GradedSystem(np.diag([1.0, 1.0, -1.0]), q0)


def test_a_supercharge_whose_square_overflows_is_refused_before_the_product():
    # an odd selfadjoint Q0 of entries 1e160: H = Q0 Q0 would overflow, and
    # the product warned "overflow encountered in matmul" before H was
    # refused as not finite.  Entries 2^510 square to a finite H and build
    q0 = np.zeros((3, 3))
    q0[0, 2] = q0[2, 0] = 1e160
    with pytest.raises(ValueError, match=r"^supercharge too large: H = Q0\^2 would overflow, "
                                         r"\|\|Q0\|\|_F = 1.41e\+160 is not below 2\^511$"):
        GradedSystem(np.diag([1.0, 1.0, -1.0]), q0)
    q0[0, 2] = q0[2, 0] = 2.0 ** 510
    system = GradedSystem(np.diag([1.0, 1.0, -1.0]), q0)
    assert np.isfinite(system.hamiltonian).all() and system.witten_index == 1.0


def test_an_empty_stack_has_no_norms_and_no_parities():
    # zero slices: the flat reshape has no size to infer from, and there is
    # no largest square to compare
    empty = np.zeros((0, 2, 2))
    assert frobenius_norms(empty).shape == (0,)
    assert frobenius_norms(np.zeros((2, 0, 4, 4))).shape == (2, 0)
    assert GradingOperator(np.diag([1.0, -1.0])).classify(empty) == []


@pytest.mark.parametrize("scale", [1.0, 1e160])
def test_classify_holds_where_the_squares_overflow(scale):
    # at 1e160 an unscaled norm read inf <= inf, and every element was even
    g = block_grading(2, 1)
    odd = np.zeros((3, 3))
    odd[0, 2] = odd[2, 0] = scale
    even = np.zeros((3, 3))
    even[0, 1] = scale
    assert g.classify(odd) is Parity.ODD
    assert g.classify(odd + even) is Parity.MIXED
    assert g.classify(np.array([even, odd, odd + even])) == [
        Parity.EVEN, Parity.ODD, Parity.MIXED]


def test_frobenius_norms_scale_by_powers_of_two_where_the_squares_overflow():
    # each slice is scaled by its own power of two, which is exact: the
    # slices that do not overflow keep their bits, and the one that does
    # reads its unscaled norm times 2^600
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    big = m.copy()
    big[1] *= 2.0 ** 600
    want = frobenius_norms(m)
    np.testing.assert_array_equal(frobenius_norms(big), want * [1.0, 2.0 ** 600, 1.0])
    assert frobenius_norms(m[0]) == want[0]


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _spectral_cases(d):
    # name -> (K, d, d) stack whose largest singular value the Gram route
    # must read: random stacks, a rank-one slice, a top pair of singular
    # values that agree to 1e-8, and entries near 2^510, where every Gram
    # entry overflows unscaled, and near 2^-600, where every one underflows
    rng = np.random.default_rng(40 + d)
    cases = {"random%d" % k: _complex_normal(rng, (k, d, d)) for k in (1, 3, 416)}
    cases["rank one"] = _complex_normal(rng, (1, d, 1)) @ _complex_normal(rng, (1, 1, d))
    u, _ = np.linalg.qr(_complex_normal(rng, (d, d)))
    v, _ = np.linalg.qr(_complex_normal(rng, (d, d)))
    sigma = np.linspace(0.5, 0.1, d)
    sigma[:2] = 1.0, 1.0 - 1e-8
    cases["near tie"] = ((u * sigma) @ v)[None]
    phase = np.exp(2j * np.pi * rng.random((3, d, d)))
    cases["near 2^510"] = 2.0 ** 510 * (1.5 + 0.5 * rng.random((3, d, d))) * phase
    cases["near 2^-600"] = 2.0 ** -600 * (1.0 + rng.random((3, d, d))) * phase
    return cases


@pytest.mark.parametrize("d", [5, 10])
def test_spectral_norms_read_the_largest_singular_value(d):
    # sqrt(lambda_max(m^H m)) against LAPACK's SVD, to 4 d u relative
    for name, m in _spectral_cases(d).items():
        want = np.linalg.svd(m, compute_uv=False)[:, 0]
        got = spectral_norms(m)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / want) <= 4 * d * np.finfo(float).eps / 2, name
    assert spectral_norms(np.zeros((2, d, d))).tolist() == [0.0, 0.0]
    assert spectral_norms(np.zeros((0, d, d))).shape == (0,)
    assert type(spectral_norms(np.eye(d))) is np.float64 and spectral_norms(np.eye(d)) == 1.0


def test_spectral_norms_give_each_slice_its_bits_alone():
    # stacked or one at a time, each slice reads the same bits, on the
    # common path and on the scaled one
    cases = _spectral_cases(5)
    m = np.concatenate([cases["random3"], cases["near 2^510"][:1], np.zeros((1, 5, 5)),
                        cases["near 2^-600"][:1], cases["rank one"]])
    stacked = spectral_norms(m)
    assert [spectral_norms(x) for x in m] == stacked.tolist()
    np.testing.assert_array_equal(spectral_norms(m[:6].reshape(2, 3, 5, 5)),
                                  stacked[:6].reshape(2, 3))


def test_spectral_norms_of_a_slice_that_is_not_finite_are_nan():
    # a NaN or an infinity in a slice reads NaN there, which make_report
    # reports as a failing row, with no warning and no LinAlgError; the
    # other slices keep their bits
    rng = np.random.default_rng(9)
    m = _complex_normal(rng, (6, 4, 4))
    want = spectral_norms(m)
    bad = m.copy()
    bad[1, 0, 0] = np.nan
    bad[2, 3, 1] = np.inf
    bad[4, 2, 2] = complex(-np.inf, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spectral_norms(bad)
        alone = spectral_norms(bad[2])
    assert np.isnan(got[[1, 2, 4]]).all() and np.isnan(alone)
    np.testing.assert_array_equal(got[[0, 3, 5]], want[[0, 3, 5]])


def test_parity_split_reconstructs():
    rng = np.random.default_rng(3)
    g = block_grading(2, 3)
    x = random_matrix(rng, 5)
    even, odd = parity_split(x, g)
    np.testing.assert_allclose(even + odd, x, atol=1e-14)
    assert g.classify(even) is Parity.EVEN
    assert g.classify(odd) is Parity.ODD


def test_as_matrix_refuses_a_non_square_shape():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.ones(4))


def test_grading_refuses_elements_of_another_dimension():
    g = block_grading(1, 1)
    for x in (np.eye(3), np.zeros((4, 3, 3))):
        with pytest.raises(DimensionMismatch, match="dimension 3 .* dimension 2"):
            g.conjugate(x)
        with pytest.raises(DimensionMismatch, match="dimension 3 .* dimension 2"):
            g.classify(x)


def test_graded_commutator_homogeneous_cases():
    rng = np.random.default_rng(11)
    g = block_grading(2, 2)
    xs = {}
    for name in ("a", "b"):
        even, odd = parity_split(random_matrix(rng, 4), g)
        xs[name + "_even"] = even
        xs[name + "_odd"] = odd

    ee = graded_commutator(xs["a_even"], xs["b_even"], g)
    np.testing.assert_allclose(
        ee, xs["a_even"] @ xs["b_even"] - xs["b_even"] @ xs["a_even"], atol=1e-13)

    eo = graded_commutator(xs["a_even"], xs["b_odd"], g)
    np.testing.assert_allclose(
        eo, xs["a_even"] @ xs["b_odd"] - xs["b_odd"] @ xs["a_even"], atol=1e-13)

    # both odd: anticommutator
    oo = graded_commutator(xs["a_odd"], xs["b_odd"], g)
    np.testing.assert_allclose(
        oo, xs["a_odd"] @ xs["b_odd"] + xs["b_odd"] @ xs["a_odd"], atol=1e-13)


def test_graded_commutator_bilinear_in_mixed_arguments():
    rng = np.random.default_rng(12)
    g = block_grading(1, 2)
    x = random_matrix(rng, 3)
    y = random_matrix(rng, 3)
    xe, xo = parity_split(x, g)
    total = (graded_commutator(xe, y, g) + graded_commutator(xo, y, g))
    np.testing.assert_allclose(graded_commutator(x, y, g), total, atol=1e-13)


def test_graded_commutator_refuses_mismatched_shapes():
    g = block_grading(1, 1)
    with pytest.raises(DimensionMismatch):
        graded_commutator(np.eye(2), np.eye(3), g)


def test_supertrace():
    g = block_grading(2, 1)
    assert supertrace(np.eye(3), g) == pytest.approx(1.0)  # p - q
    odd = np.zeros((3, 3))
    odd[0, 2] = 4.0
    odd[2, 0] = -1.0
    assert supertrace(odd, g) == pytest.approx(0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), p=st.integers(1, 3), q=st.integers(1, 3))
def test_graded_leibniz_property(seed, p, q):
    # [x, yz] = [x, y] z + (-1)^{|x||y|} y [x, z] for homogeneous x, y
    rng = np.random.default_rng(seed)
    d = p + q
    g = block_grading(p, q)
    x_even, x_odd = parity_split(random_matrix(rng, d), g)
    y_even, y_odd = parity_split(random_matrix(rng, d), g)
    z = random_matrix(rng, d)
    for x in (x_even, x_odd):
        for y, sign in ((y_even, 1.0), (y_odd, 1.0)):
            if g.classify(x) is Parity.ODD and g.classify(y) is Parity.ODD:
                sign = -1.0
            lhs = graded_commutator(x, y @ z, g)
            rhs = graded_commutator(x, y, g) @ z + sign * (y @ graded_commutator(x, z, g))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_supertrace_vanishes_on_graded_commutators(seed):
    rng = np.random.default_rng(seed)
    g = block_grading(2, 2)
    x = random_matrix(rng, 4)
    y = random_matrix(rng, 4)
    # graded cyclicity: Str[x, y] = 0 for homogeneous parts
    for xp in parity_split(x, g):
        for yp in parity_split(y, g):
            val = supertrace(graded_commutator(xp, yp, g), g)
            assert abs(val) < 1e-10 * max(1.0, np.linalg.norm(xp) * np.linalg.norm(yp))

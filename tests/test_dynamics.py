"""Tests for the graded dynamical system and its functional."""

import numpy as np
import pytest
import scipy.linalg

from skmslab.dynamics import (
    GradedSystem,
    heisenberg_flow,
    kms_two_point,
    require_strip,
    skms_eval,
    superderivation,
    verify_skms_axioms,
)
from skmslab.errors import (
    ConditioningWarning,
    DimensionMismatch,
    ParityViolation,
    StripViolation,
    ZeroWittenIndex,
)
from skmslab.graded import Parity, as_matrix
from skmslab.report import DOCUMENTED, Measurement
from skmslab.workbench.suites import gate


def block_system(p, q, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    d = p + q
    m = rng.standard_normal((q, p)) + 1j * rng.standard_normal((q, p))
    q0 = np.zeros((d, d), dtype=complex)
    q0[:p, p:] = m.conj().T
    q0[p:, :p] = m
    q0 *= scale / np.linalg.norm(q0, 2)
    grading = np.diag([1.0] * p + [-1.0] * q)
    return GradedSystem(grading, q0)


def test_construction_and_cached_data():
    sys_ = block_system(3, 2, seed=1)
    assert sys_.dim == 5
    np.testing.assert_allclose(
        sys_.hamiltonian, sys_.supercharge @ sys_.supercharge, atol=1e-14)
    assert sys_.spectrum.evals.min() >= 0.0
    with pytest.raises(ValueError):
        sys_.supercharge[0, 0] = 1.0  # read-only


def test_witten_index_counts_block_sizes():
    # the graded heat trace telescopes over paired nonzero modes
    for p, q, seed in ((3, 2, 0), (4, 1, 5), (2, 5, 7)):
        sys_ = block_system(p, q, seed=seed)
        assert sys_.witten_index == pytest.approx(p - q, abs=1e-10)


def test_construction_rejections():
    grading = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ParityViolation, match="odd"):
        GradedSystem(grading, np.diag([1.0, 2.0, 3.0]))
    odd = np.zeros((3, 3), dtype=complex)
    odd[0, 2] = 1.0
    with pytest.raises(ParityViolation, match="selfadjoint"):
        GradedSystem(grading, odd)
    with pytest.raises(DimensionMismatch, match="dimension"):
        GradedSystem(grading, np.zeros((2, 2)))
    # p = q kills the index
    q0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ZeroWittenIndex):
        GradedSystem(np.diag([1.0, -1.0]), q0)


def test_random_element_parities():
    sys_ = block_system(3, 2, seed=3)
    rng = np.random.default_rng(0)
    x = sys_.random_element(rng, parity="even")
    assert sys_.grading.classify(x) is Parity.EVEN
    y = sys_.random_element(rng, parity=Parity.ODD)
    assert sys_.grading.classify(y) is Parity.ODD
    z = sys_.random_element(rng)
    assert np.linalg.norm(z, 2) == pytest.approx(1.0, rel=1e-12)
    # same seed, same draw
    a = sys_.random_element(np.random.default_rng(42))
    b = sys_.random_element(np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_flow_zero_time_is_identity():
    sys_ = block_system(3, 2, seed=2)
    x = sys_.random_element(np.random.default_rng(1))
    assert heisenberg_flow(sys_, x, 0.0) is x


def test_flow_converts_and_checks_x_at_every_time():
    # at z = 0 a nested list came back as a list and a 2x2 matrix on a
    # d = 5 system came back unchanged; at z = 0.1 the latter ended in
    # numpy's matmul ValueError
    sys_ = block_system(3, 2, seed=2)
    x = sys_.random_element(np.random.default_rng(1))
    got = heisenberg_flow(sys_, x.tolist(), 0)
    assert type(got) is np.ndarray and got.dtype == complex
    np.testing.assert_array_equal(got, x)
    for z in (0, 0.1):
        with pytest.raises(DimensionMismatch,
                           match="dimension 2 does not match system dimension 5"):
            heisenberg_flow(sys_, np.eye(2), z)


def test_flow_group_law_and_isometry():
    sys_ = block_system(3, 2, seed=2)
    x = sys_.random_element(np.random.default_rng(4))
    a = heisenberg_flow(sys_, heisenberg_flow(sys_, x, 0.3), 0.9)
    b = heisenberg_flow(sys_, x, 1.2)
    np.testing.assert_allclose(a, b, atol=1e-13)
    assert np.linalg.norm(heisenberg_flow(sys_, x, 0.7), 2) == pytest.approx(
        np.linalg.norm(x, 2), rel=1e-12)


def test_flow_matches_expm():
    sys_ = block_system(2, 1, seed=6)
    x = as_matrix(sys_.random_element(np.random.default_rng(5)))
    h = sys_.hamiltonian
    for z in (0.8, 0.8 + 0.5j, 1j):
        u = scipy.linalg.expm(1j * z * h)
        uinv = scipy.linalg.expm(-1j * z * h)
        want = u @ x @ uinv
        got = heisenberg_flow(sys_, x, z)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_flow_conditioning_warning():
    sys_ = block_system(2, 1, seed=0, scale=9.0)
    spread = sys_.spectrum.evals[-1] - sys_.spectrum.evals[0]
    assert spread > 50.0
    x = np.eye(3)
    with pytest.warns(ConditioningWarning):
        heisenberg_flow(sys_, x, 1j)


def test_superderivation_algebra():
    sys_ = block_system(3, 2, seed=8)
    rng = np.random.default_rng(9)
    x = sys_.random_element(rng)
    y = sys_.random_element(rng)
    # graded Leibniz: delta(xy) = delta(x) y + gamma(x) delta(y)
    lhs = superderivation(sys_, x @ y)
    rhs = superderivation(sys_, x) @ y + sys_.gamma(x) @ superderivation(sys_, y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
    # adjoint covariance: delta(x*) = gamma(delta(x)*)
    lhs2 = superderivation(sys_, x.conj().T)
    rhs2 = sys_.gamma(superderivation(sys_, x).conj().T)
    np.testing.assert_allclose(lhs2, rhs2, atol=1e-13)
    # delta^2 = [H, .]
    dd = superderivation(sys_, superderivation(sys_, x))
    comm = sys_.hamiltonian @ x - x @ sys_.hamiltonian
    np.testing.assert_allclose(dd, comm, atol=1e-12)


def test_functional_against_direct_formula():
    sys_ = block_system(3, 2, seed=10)
    x = as_matrix(sys_.random_element(np.random.default_rng(11)))
    heat = scipy.linalg.expm(-sys_.hamiltonian)
    z = np.trace(sys_.grading.matrix @ heat)
    want = np.trace(sys_.grading.matrix @ heat @ x) / z
    assert skms_eval(sys_, x) == pytest.approx(want, abs=1e-13)
    assert skms_eval(sys_, sys_.unit()) == pytest.approx(1.0, abs=1e-14)


def test_strip_guard():
    assert require_strip(0.5 + 0.3j) == 0.5 + 0.3j
    require_strip(1j * (1.0 + 1e-13))  # inside tolerance
    with pytest.raises(StripViolation):
        require_strip(2j)
    with pytest.raises(StripViolation):
        require_strip(-0.2j)
    sys_ = block_system(2, 1, seed=0)
    x = sys_.unit()
    with pytest.raises(StripViolation):
        kms_two_point(sys_, x, x, -1j)


def test_axioms_checker_passes_and_reports():
    sys_ = block_system(3, 2, seed=1)
    measured = verify_skms_axioms(sys_, samples=20, seed=1)
    # measurements carry no verdict and no stamp:
    # test_all_suite_rows_are_pinned checks the stamps
    assert all(type(m) is Measurement for m in measured)
    reports = gate(measured, 1e-10)
    names = [r.identity_name for r in reports]
    assert names == [
        "skms.hermiticity",
        "skms.alpha_invariance",
        "skms.gamma_invariance",
        "skms.kms_boundary",
        "skms.normalization",
        "skms.delta_invariance",
        "skms.delta_squared_ad_h",
        "skms.weak_supersymmetry",
        "skms.functional_norm",
    ]
    for r in reports:
        assert r.passed, (r.identity_name, r.max_residual)
    checked = [r for r in reports if r.tolerance != DOCUMENTED]
    assert all(r.max_residual <= 1e-10 for r in checked)
    norm_row = reports[-1]
    assert norm_row.tolerance == DOCUMENTED
    assert norm_row.max_residual >= 1.0  # Tr e^{-H} >= |Z|


def test_axioms_checker_deterministic():
    sys_ = block_system(3, 2, seed=1)
    a = verify_skms_axioms(sys_, samples=10, seed=5)
    b = verify_skms_axioms(sys_, samples=10, seed=5)
    assert a == b

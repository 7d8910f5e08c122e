"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible with pytest -s or on failure) before asserting.  The
fixtures are deterministic; tolerances are stated inline next to each
assertion.
"""

import math
import time

import numpy as np
import pytest

from skmslab.cochain import (
    boundary,
    entireness_diagnostic,
    jlo_cochain,
    tau_eval,
)
from skmslab.dynamics import (GradedSystem, heisenberg_flow, skms_eval,
                              verify_skms_axioms)
from skmslab.graded import as_matrix
from skmslab.kernels import (
    SimplexQuadratureRule,
    Spectrum,
    chain_integral,
    heat_chain_integrand,
    simplex_quadrature,
)
from skmslab.perturbation import (
    OddPerturbation,
    PerturbedContext,
    dyson_alpha_info,
    dyson_gamma_one_info,
    endpoint_transgression_check,
    f_identities_check,
    gamma_cocycle_oracle,
    homotopy_check,
    lemma43_check,
    lipschitz_check,
    skms_check_perturbed,
    tau_r_eval,
    transgression_cochain,
    witten_invariance_check,
)
from skmslab.report import DOCUMENTED
from skmslab.workbench import ModelSpec, build_model, emit_report, run_suite
from skmslab.workbench.suites import SuiteConfig, gate


def report_line(num, name, ok, detail):
    print("criterion %02d %-28s %s  (%s)" % (num, name, "PASS" if ok else "FAIL", detail))


def block_system(p, q, seed=0, scale=None):
    spec = ModelSpec(kind="RectangularBlock", p=p, q=q, seed=seed, scale=scale)
    return build_model(spec)[0]


def odd_perturbation(sys_, seed=100, scale=0.4):
    rng = np.random.default_rng(seed)
    d = sys_.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = (m - sys_.grading.conjugate(m)) / 2
    m = (m + m.conj().T) / 2
    m *= scale / np.linalg.norm(m, 2)
    return OddPerturbation(m, sys_.grading)


def even_tuple(sys_, rng, count):
    return [as_matrix(sys_.random_element(rng, parity="even")) for _ in range(count)]


def max_checked_residual(rows):
    return max((r.max_residual for r in rows if r.tolerance != DOCUMENTED),
               default=0.0)


def test_criterion_01_functional_axioms():
    start = time.perf_counter()
    worst = 0.0
    for p, q, seed in ((6, 4, 2), (3, 2, 1)):
        sys_ = block_system(p, q, seed=seed, scale=1.0)
        rows = gate(verify_skms_axioms(sys_, samples=50, seed=seed), 1e-10)
        assert all(r.passed for r in rows), [r for r in rows if not r.passed]
        worst = max(worst, max_checked_residual(rows))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report_line(1, "functional_axioms", ok,
                "max residual %.2e <= 1e-10, %.2f s < 10 s" % (worst, elapsed))
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_normalization():
    sys_ = block_system(3, 2, seed=1, scale=1.0)
    res_phi = abs(skms_eval(sys_, sys_.unit()) - 1.0)
    res_tau = abs(tau_eval(sys_, 0, [sys_.unit()]) - 1.0)
    worst = max(res_phi, res_tau)
    ok = worst <= 1e-12
    report_line(2, "normalization", ok, "max residual %.2e <= 1e-12" % worst)
    assert res_phi <= 1e-12
    assert res_tau <= 1e-12


def test_criterion_03_cocycle_boundary():
    start = time.perf_counter()
    sys_ = block_system(6, 4, seed=3, scale=1.2)  # d = 10
    dtau = boundary(jlo_cochain(sys_))
    rng = np.random.default_rng(np.random.SeedSequence((3, 0x0B)))
    worst = 0.0
    for n in (1, 3, 5):
        for _ in range(200):
            xs = even_tuple(sys_, rng, n + 1)
            worst = max(worst, abs(dtau(n, xs)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 300.0
    report_line(3, "cocycle_boundary", ok,
                "600 tuples, max |(B+b)tau| %.2e <= 1e-8, %.1f s < 300 s"
                % (worst, elapsed))
    assert worst <= 1e-8
    assert elapsed < 300.0


def test_criterion_04_chain_vs_monte_carlo():
    worst_sigma = 0.0
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence((i, 0x4C)))
        n = (i % 3) + 1
        lam = np.sort(rng.random(5) * 2.0)
        basis, _ = np.linalg.qr(rng.standard_normal((5, 5))
                                + 1j * rng.standard_normal((5, 5)))
        spec = Spectrum(lam, basis)
        g = basis @ np.diag([1.0, 1.0, 1.0, -1.0, -1.0]) @ basis.conj().T
        xs = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
              for _ in range(n + 1)]
        exact = chain_integral(spec, xs, g)
        integrand = heat_chain_integrand(spec, xs, g)
        rule = SimplexQuadratureRule("mc", 10 ** 6, seed=i)
        approx, stderr = simplex_quadrature(integrand, n, rule)
        sigma = abs(exact - approx) / stderr
        worst_sigma = max(worst_sigma, sigma)
        assert sigma <= 3.0, (i, n, sigma)
    ok = worst_sigma <= 3.0
    report_line(4, "chain_vs_monte_carlo", ok,
                "20 instances at 1e6 samples, worst %.2f sigma <= 3" % worst_sigma)
    assert ok


def test_criterion_05_dyson_truncation_certificates():
    shapes = ((3, 1), (3, 2), (4, 2), (5, 1))
    alpha_margin = 0.0
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence((i, 0x5D)))
        p, q = shapes[i % len(shapes)]
        sys_ = block_system(p, q, seed=1000 + i, scale=1.4)
        pert = odd_perturbation(sys_, seed=2000 + i, scale=0.4)
        r = float(rng.uniform(0.1, 1.0))
        t = float(rng.uniform(-1.0, 1.0))
        ctx = PerturbedContext(sys_, pert, r)
        assert ctx.a_norm <= 2.0
        x = as_matrix(sys_.random_element(rng))

        got, info = dyson_alpha_info(ctx, x, t, order=12)
        assert info.order <= 12
        err = np.linalg.norm(got - as_matrix(heisenberg_flow(ctx, x, t)), 2)
        # the certificate is an exact-arithmetic bound; in double precision
        # it can drop below the noise of the comparison oracle itself, so it
        # is enforced up to the 1e-12 floor all tolerances share
        budget = info.tail_bound + 1e-12
        assert err <= budget, (i, err, info)
        alpha_margin = max(alpha_margin, err / budget)

        gamma, ginfo = dyson_gamma_one_info(ctx, 1j, order=12)
        gerr = np.linalg.norm(gamma - gamma_cocycle_oracle(ctx, 1j), 2)
        assert gerr <= ginfo.tail_bound + 1e-12, (i, gerr, ginfo)
    report_line(5, "dyson_truncation", True,
                "20 triples, order 12, worst error/budget ratio %.1e" % alpha_margin)


def test_criterion_06_witten_invariance():
    worst = 0.0
    models = [
        block_system(3, 2, seed=1, scale=1.0),
        block_system(6, 4, seed=2, scale=1.0),
        block_system(4, 1, seed=5, scale=1.0),
        build_model(ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6))[0],
    ]
    for k, sys_ in enumerate(models):
        pert = odd_perturbation(sys_, seed=300 + k, scale=0.4)
        rows = gate(witten_invariance_check(sys_, pert, grid=11), 1e-10)
        assert all(r.passed for r in rows), [r for r in rows if not r.passed]
        worst = max(worst, max_checked_residual(rows))
    ok = worst <= 1e-10
    report_line(6, "witten_invariance", ok,
                "4 models, r grid 0..1 step 0.1, max residual %.2e <= 1e-10" % worst)
    assert ok


def test_criterion_07_flow_lipschitz_bound():
    sys_ = block_system(3, 2, seed=1, scale=1.0)
    pert = odd_perturbation(sys_, scale=0.4)
    rows = gate(lipschitz_check(sys_, pert, samples=100, seed=0), 0.0)
    violation = rows[0].max_residual
    ok = violation == 0.0
    report_line(7, "flow_lipschitz_bound", ok,
                "100 draws, worst bound violation %.2e" % violation)
    assert rows[0].passed
    assert violation == 0.0


def test_criterion_08_perturbed_flow_cocycle():
    sys_ = block_system(3, 2, seed=1, scale=1.0)
    pert = odd_perturbation(sys_, scale=0.4)
    ctx = PerturbedContext(sys_, pert, 0.7)
    rows = gate(lemma43_check(ctx, samples=50, seed=0), 1e-11)
    assert len(rows) == 4
    worst = max_checked_residual(rows)
    ok = worst <= 1e-11
    report_line(8, "perturbed_flow_cocycle", ok,
                "4 identities, 50 samples, max residual %.2e <= 1e-11" % worst)
    for r in rows:
        assert r.passed, (r.identity_name, r.max_residual)


def test_criterion_09_perturbed_functional_axioms():
    sys_ = block_system(3, 2, seed=1, scale=1.0)
    pert = odd_perturbation(sys_, scale=0.4)
    ctx = PerturbedContext(sys_, pert, 0.6)
    # the axioms phi^r shares with phi, then the perturbation's own rows
    rows = gate(verify_skms_axioms(ctx, samples=25, seed=0)
                + skms_check_perturbed(ctx, samples=25, seed=0), 1e-9)
    by_name = {r.identity_name: r for r in rows}
    worst = max_checked_residual(rows)
    at_zero = by_name["skms_r.error_term_at_zero"].max_residual
    ok = worst <= 1e-9 and at_zero == 0.0
    report_line(9, "perturbed_functional_axioms", ok,
                "max residual %.2e <= 1e-9, error term at t=0 == %.1f exactly"
                % (worst, at_zero))
    for r in rows:
        assert r.passed, (r.identity_name, r.max_residual)
    assert at_zero == 0.0


def test_criterion_10_chain_functional_identities():
    worst = 0.0
    sys_ = block_system(3, 2, seed=1, scale=1.0)
    pert = odd_perturbation(sys_, scale=0.4)
    for r in (0.0, 0.5, 1.0):
        ctx = PerturbedContext(sys_, pert, r)
        rows = gate(f_identities_check(ctx, n=3, samples=50, seed=0), 1e-9)
        assert all(row.passed for row in rows), [row for row in rows if not row.passed]
        worst = max(worst, max_checked_residual(rows))
    ok = worst <= 1e-9
    report_line(10, "chain_functional_identities", ok,
                "5 identities x r in {0, 0.5, 1}, 50 tuples, max residual %.2e <= 1e-9"
                % worst)
    assert ok


def test_criterion_11_transgression_homotopy():
    start = time.perf_counter()
    sys_ = block_system(5, 3, seed=4, scale=1.0)  # d = 8
    pert = odd_perturbation(sys_, seed=44, scale=0.4)
    rng = np.random.default_rng(np.random.SeedSequence((4, 0x48)))
    xs = even_tuple(sys_, rng, 3)
    rows = homotopy_check(sys_, pert, 2, xs, r=0.5, hs=(1e-2, 5e-3, 2.5e-3),
                          order_floor=1.9)
    by_name = {r.identity_name: r for r in rows}
    deficit = by_name["transgression.derivative_order"].max_residual
    endpoint = endpoint_transgression_check(sys_, pert, 2, xs, tol=1e-6)[0]
    elapsed = time.perf_counter() - start
    ok = deficit == 0.0 and endpoint.passed and elapsed < 600.0
    report_line(11, "transgression_homotopy", ok,
                "order deficit below 1.9: %.1e, endpoint %.2e <= 1e-6, "
                "%.1f s < 600 s" % (deficit, endpoint.max_residual, elapsed))
    # both rows hold dtau^r/dr = -(B + b)G^r, the sign fixed in advance
    assert deficit == 0.0  # observed Richardson order >= 1.9
    assert endpoint.passed, endpoint.max_residual
    assert elapsed < 600.0


def test_criterion_12_entireness_decay():
    spec = ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6)
    sys_ = build_model(spec)[0]
    rows = entireness_diagnostic(sys_, samples=32, seed=0)
    indicators = [m.max_residual for m in rows[:-2]]
    assert [m.identity_name for m in rows] == [
        "entireness.indicator_n%d" % n for n in (2, 4, 6, 8, 10, 12)] + [
        "entireness.monotone", "entireness.jlo_bound"]
    # a sampled decay at degrees 2..8, and the JLO bound at every degree
    decreasing = all(b < a for a, b in zip(indicators[:4], indicators[1:4]))
    bound = rows[-1].max_residual
    report_line(12, "entireness_decay", decreasing and bound == 0.0,
                "sqrt(n)*|tau_n|^(1/n) = " + ", ".join("%.4f" % v for v in indicators)
                + "; JLO bound excess %.1e" % bound)
    assert all(v > 0.0 for v in indicators)
    assert decreasing
    assert bound == 0.0


def test_criterion_13_scalar_slot_degeneracy():
    sys_ = block_system(3, 2, seed=1, scale=1.0)
    pert = odd_perturbation(sys_, scale=0.4)
    ctx = PerturbedContext(sys_, pert, 0.5)
    rng = np.random.default_rng(6)
    xs = even_tuple(sys_, rng, 3)
    vals = []
    for slot, scalar in ((1, 2.5), (2, -1.5j)):
        args = list(xs)
        args[slot] = scalar * np.eye(5)
        vals.append(tau_eval(sys_, 2, args))
        vals.append(tau_r_eval(ctx, 2, args))
    vals.append(transgression_cochain(ctx)(1, [xs[0], 4.0 * np.eye(5)]))
    exact = all(v == 0.0 for v in vals)
    report_line(13, "scalar_slot_degeneracy", exact,
                "%d evaluations, all exactly 0" % len(vals))
    assert exact


def test_criterion_14_report_determinism():
    spec = ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
                     perturbation={"seed": 11, "scale": 0.3})
    config = SuiteConfig(seed=0)
    first = run_suite(spec, "All", config)
    second = run_suite(spec, "All", config)
    json_equal = emit_report(first, format="json").encode() \
        == emit_report(second, format="json").encode()
    csv_equal = emit_report(first, format="csv").encode() \
        == emit_report(second, format="csv").encode()
    all_passed = all(r.passed for r in first)
    ok = json_equal and csv_equal
    report_line(14, "report_determinism", ok,
                "All suite twice: %d rows, JSON/CSV byte-identical, all passed: %s"
                % (len(first), all_passed))
    assert json_equal
    assert csv_equal
    assert all_passed, [(r.identity_name, r.max_residual) for r in first if not r.passed]

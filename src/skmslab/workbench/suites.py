"""Verification suites: named bundles of checks over one model.

Each suite builds a deterministic list of check closures; rows come back
in declaration order regardless of --jobs, and a chain-budget overflow in
one check degrades to a failing row with residual DOCUMENTED instead of
aborting the run.
"""

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..cochain import (boundary, entireness_diagnostic, jlo_cochain,
                       lemma34_check, tau_eval)
from ..dynamics import (_draw_tuples, heisenberg_flow, skms_eval,
                        verify_skms_axioms)
from ..errors import ChainBudgetExceeded
from ..graded import modulus
from ..kernels import GAUSS_MIN_ORDER
from ..perturbation import (PerturbedContext, boundary_of_transgression,
                            dyson_alpha_info, dyson_gamma_one_info,
                            endpoint_transgression_check, f_identities_check,
                            gamma_cocycle_oracle, homotopy_check,
                            lemma43_check, lemma44_check, lipschitz_check,
                            skms_check_perturbed, transgression_G,
                            witten_invariance_check)
from ..report import DOCUMENTED, make_report
from .models import build_perturbed_model, model_digest

SUITES = ("Axioms", "Cocycle", "Lemma34", "Perturbation", "Homotopy",
          "Entireness", "All")
# the gates of the quadrature-backed rows (the cocycle boundaries and
# Lemma 3.4) and of the finite-difference endpoint row
TOL_QUAD = 1e-8
TOL_FD = 1e-6


@dataclass(frozen=True)
class SuiteConfig:
    """Tolerances and knobs shared by all suites.

    tol_exact gates identities that hold to rounding; quadrature-backed
    and finite-difference rows are gated by TOL_QUAD and TOL_FD.
    quadrature is 'gauss:<order>' or 'mc:<samples>' (Monte Carlo applies
    to standalone evaluation; suite checks that need nodes use Gauss).
    """

    tol_exact: float = 1e-10
    max_degree: int = 5
    series_order: int = None
    quadrature: str = "gauss:8"
    seed: int = 0
    jobs: int = 1
    timing: bool = False


def parse_quadrature(text):
    """(kind, count) of 'gauss:<order>' or 'mc:<samples>'; ValueError else."""
    kind, _, num = text.partition(":")
    kind = kind.strip().lower()
    if kind not in ("gauss", "mc") or not num.strip().isdigit() or int(num) < 1:
        raise ValueError("quadrature must be gauss:<order> or mc:<samples> "
                         "with a positive count, got %r" % text)
    if kind == "gauss" and int(num) < GAUSS_MIN_ORDER:
        raise ValueError("Gauss order must be at least %d, got %s"
                         % (GAUSS_MIN_ORDER, num))
    return kind, int(num)


def _axioms_checks(sys, digest, config):
    def run():
        return verify_skms_axioms(sys, samples=50, tol=config.tol_exact,
                                  seed=config.seed, model_digest=digest)
    return [("skms.axioms", "S0", config.tol_exact, run)]


def _cocycle_checks(sys, digest, config):
    checks = []
    unit = sys.unit()

    def normalization():
        phi_res = abs(skms_eval(sys, unit) - 1.0)
        tau_res = abs(tau_eval(sys, 0, [unit]) - 1.0)
        return [
            make_report("phi.normalization", "S3", 1, phi_res, 1e-12,
                        seed=config.seed, model_digest=digest),
            make_report("tau.normalization", "main", 1, tau_res, 1e-12,
                        seed=config.seed, model_digest=digest),
        ]
    checks.append(("phi.normalization", "S3", 1e-12, normalization))

    def degeneracy():
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x0D)))
        xs = list(sys.random_elements(rng, 3, parity="even"))
        worst = 0.0
        for slot in (1, 2):
            args = list(xs)
            args[slot] = 2.5 * np.eye(sys.dim, dtype=complex)
            worst = max(worst, abs(tau_eval(sys, 2, args)))
        return [make_report("tau.degeneracy", "main", 2, worst, 0.0,
                            seed=config.seed, model_digest=digest)]
    checks.append(("tau.degeneracy", "main", 0.0, degeneracy))

    tau = jlo_cochain(sys)
    dtau = boundary(tau)
    for n in range(1, config.max_degree + 1, 2):
        def run(n=n):
            rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, 0x0B, n)))
            stacks = _draw_tuples(sys, rng, 25, n + 1, parity="even")
            worst = max(0.0, float(np.max(modulus(dtau(n, stacks)))))
            return [make_report("cocycle.boundary_n%d" % n, "boundary", 25,
                                worst, TOL_QUAD, seed=config.seed,
                                model_digest=digest)]
        checks.append(("cocycle.boundary_n%d" % n, "boundary", TOL_QUAD, run))
    return checks


def _lemma34_checks(sys, digest, config):
    kind, num = parse_quadrature(config.quadrature)
    order = num if kind == "gauss" else 8

    def run():
        return lemma34_check(sys, n=2, samples=6, tol=TOL_QUAD,
                             order=order, seed=config.seed, model_digest=digest)
    return [("chain.rotation", "rotation", TOL_QUAD, run)]


def _dyson_fidelity(sys, pert, digest, config):
    ctx = PerturbedContext(sys, pert, 0.7)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x5D)))
    xs = sys.random_elements(rng, 3)

    def run():
        # one series per (t, order) serves the three elements and gamma
        memo = {}
        worst_alpha = 0.0
        for t in (0.3, 1.0):
            val, info = dyson_alpha_info(ctx, xs, t, tol=1e-10,
                                         order=config.series_order, memo=memo)
            err = np.linalg.norm(val - heisenberg_flow(ctx, xs, t), 2, axis=(1, 2))
            budgeted = info.tail_bound + 1e-12
            worst_alpha = max(worst_alpha, float(np.max(err - budgeted)))
        # real t as well as t = i: a defect in the real-time series alone
        # leaves the t = i heat chain intact
        gamma_times = (0.3, 1.0, 1j)
        worst_gamma = 0.0
        for t in gamma_times:
            gval, ginfo = dyson_gamma_one_info(ctx, t, tol=1e-10,
                                               order=config.series_order, memo=memo)
            gerr = float(np.linalg.norm(gval - gamma_cocycle_oracle(ctx, t), 2))
            worst_gamma = max(worst_gamma, gerr - (ginfo.tail_bound + 1e-12))
        return [
            make_report("dyson.alpha_fidelity", "dyson", 2 * len(xs),
                        max(worst_alpha, 0.0), 0.0, seed=config.seed,
                        model_digest=digest),
            make_report("dyson.gamma_fidelity", "dyson", len(gamma_times),
                        worst_gamma, 0.0, seed=config.seed,
                        model_digest=digest),
        ]
    return [("dyson.alpha_fidelity", "dyson", 0.0, run)]


def _perturbation_checks(sys, pert, digest, config):
    ctx = PerturbedContext(sys, pert, 0.5)
    checks = [
        ("gamma_r.composition", "L43.1", config.tol_exact,
         lambda: lemma43_check(ctx, samples=20, tol=config.tol_exact,
                               seed=config.seed, model_digest=digest)),
        ("flow.cyclic_conjugation", "analcont", config.tol_exact,
         lambda: lemma44_check(sys, n=2, samples=15, tol=config.tol_exact,
                               seed=config.seed, model_digest=digest)),
        ("skms_r.hermiticity", "S0", config.tol_exact,
         lambda: skms_check_perturbed(ctx, samples=15, tol=config.tol_exact,
                                      seed=config.seed, model_digest=digest)),
        ("F.rotation", "F1", config.tol_exact,
         lambda: f_identities_check(ctx, n=min(3, config.max_degree),
                                    samples=10, tol=config.tol_exact,
                                    seed=config.seed, model_digest=digest)),
    ]
    checks.extend(_dyson_fidelity(sys, pert, digest, config))
    checks.append(
        ("witten.invariance", "phi-r1", config.tol_exact,
         lambda: witten_invariance_check(sys, pert, grid=11,
                                         tol=config.tol_exact,
                                         seed=config.seed,
                                         model_digest=digest)))
    checks.append(
        ("alpha_r.lipschitz_in_r", "lipschitz", 0.0,
         lambda: lipschitz_check(sys, pert, samples=50, seed=config.seed,
                                 model_digest=digest)))
    return checks


def _homotopy_checks(sys, pert, digest, config):
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x48)))
    xs = list(sys.random_elements(rng, 3, parity="even"))
    checks = [
        ("transgression.derivative_order", "main", 0.0,
         lambda: homotopy_check(sys, pert, 2, xs, r=0.5, seed=config.seed,
                                model_digest=digest)),
        ("transgression.endpoint", "main", TOL_FD,
         lambda: endpoint_transgression_check(sys, pert, 2, xs, tol=TOL_FD,
                                              seed=config.seed,
                                              model_digest=digest)),
    ]

    def degeneracy():
        ctx = PerturbedContext(sys, pert, 0.5)
        args = list(xs)
        args[1] = -1.5 * np.eye(sys.dim, dtype=complex)
        res = abs(transgression_G(ctx, 1, args[:2]))
        unit_res = abs(boundary_of_transgression(
            ctx, 0, [np.eye(sys.dim, dtype=complex)]))
        return [
            make_report("transgression.degeneracy", "main", 1, res, 0.0,
                        seed=config.seed, model_digest=digest),
            make_report("transgression.unit_boundary", "phi-r1", 1, unit_res,
                        0.0, seed=config.seed, model_digest=digest),
        ]
    checks.append(("transgression.degeneracy", "main", 0.0, degeneracy))
    return checks


def _entireness_checks(sys, digest, config):
    def run():
        estimates = entireness_diagnostic(sys, samples=32, seed=config.seed)
        rows = []
        indicators = [e.growth_indicator for e in estimates]
        for est, ind in zip(estimates, indicators):
            rows.append(make_report("entireness.indicator_n%d" % est.degree,
                                    "norm", est.samples, ind, DOCUMENTED,
                                    seed=config.seed, model_digest=digest))
        worst = max((indicators[i + 1] - indicators[i]
                     for i in range(len(indicators) - 1)), default=-1.0)
        rows.append(make_report("entireness.monotone", "norm",
                                sum(e.samples for e in estimates),
                                max(worst, 0.0), 0.0, seed=config.seed,
                                model_digest=digest))
        return rows
    return [("entireness.monotone", "norm", 0.0, run)]


def _suite_checks(spec, suite, config, digest):
    sys, pert = build_perturbed_model(spec, config.seed)
    bundles = {
        "axioms": lambda: _axioms_checks(sys, digest, config),
        "cocycle": lambda: _cocycle_checks(sys, digest, config),
        "lemma34": lambda: _lemma34_checks(sys, digest, config),
        "perturbation": lambda: _perturbation_checks(sys, pert, digest, config),
        "homotopy": lambda: _homotopy_checks(sys, pert, digest, config),
        "entireness": lambda: _entireness_checks(sys, digest, config),
    }
    key = suite.lower()
    if key == "all":
        checks = []
        for name in ("axioms", "cocycle", "lemma34", "perturbation",
                     "homotopy", "entireness"):
            checks.extend(bundles[name]())
        return checks
    if key not in bundles:
        raise ValueError("unknown suite %r; choose from %s" % (suite, SUITES))
    return bundles[key]()


def _run_one(entry, config, digest):
    name, anchor, tol, fn = entry
    start = time.perf_counter()
    try:
        rows = fn()
    except ChainBudgetExceeded:
        # refused rows fail whatever their tolerance, DOCUMENTED included
        row = make_report(name, anchor, 0, DOCUMENTED, tol, seed=config.seed,
                          model_digest=digest)
        rows = [dataclasses.replace(row, passed=False)]
    if config.timing:
        elapsed = (time.perf_counter() - start) * 1000.0
        rows = [dataclasses.replace(r, wall_ms=elapsed) for r in rows]
    return rows


def run_suite(spec, suite, config=None):
    """Run one named suite against a ModelSpec; returns report rows.

    Raises ValueError for config.max_degree < 1: the Cocycle suite would
    check no degree and F.* would ask for degree -1.
    """
    config = config or SuiteConfig()
    if config.max_degree < 1:
        raise ValueError("max_degree must be at least 1, got %d" % config.max_degree)
    digest = model_digest(spec)
    checks = _suite_checks(spec, suite, config, digest)
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(lambda e: _run_one(e, config, digest), checks))
    else:
        results = [_run_one(entry, config, digest) for entry in checks]
    return [row for rows in results for row in rows]

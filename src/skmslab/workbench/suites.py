"""Verification suites: named bundles of checks over one model.

Each suite builds a deterministic list of check closures, run one after
another; rows come back in declaration order, and a chain-budget overflow
or an unreachable Dyson truncation in one check degrades to a failing row
with residual DOCUMENTED instead of aborting the run; any other refusal
aborts it with no report.  The checks return measurements: _run_one gates
each into a row (see gate) and stamps it with the seed, the spec digest
and, on request, the wall time.  A known defect turns each gated row of
All red (tests/test_mutation_gate.py).

Each spec has one PerturbedContext, at r = (0, 1/2, 0.7), whose
couplings the checks select with ctx.at(k); the Witten grid and the
transgression checks build contexts of their own couplings.
"""

import dataclasses
import math
import string
import time
from dataclasses import dataclass

import numpy as np

from ..cochain import (boundary, entireness_diagnostic, jlo_cochain,
                       lemma34_check, tau_eval)
from ..dynamics import (_draw_tuples, heisenberg_flow, skms_eval,
                        verify_skms_axioms)
from ..errors import ChainBudgetExceeded, TruncationUnreachable, check_integer
from ..graded import spectral_norms
from ..perturbation import (PerturbedContext, dyson_alpha_info,
                            dyson_gamma_one_info,
                            endpoint_transgression_check, f_identities_check,
                            gamma_cocycle_oracle, homotopy_check,
                            lemma43_check, lemma44_check,
                            skms_check_perturbed, witten_invariance_check)
from ..report import DOCUMENTED, Measurement, make_report
from .models import build_perturbed_model, check_scale, model_digest

SUITES = ("Axioms", "Cocycle", "Lemma34", "Perturbation", "Homotopy",
          "Entireness", "All")
# the absolute gate of the cocycle boundaries and chain.rotation, which
# compare exact chains, and of chain.slot_derivative, which compares a
# Gauss quadrature with exact chains; and of the finite-difference
# endpoint row
TOL_QUAD = 1e-8
TOL_FD = 1e-6
# rows gated at a tolerance of their own, not their suite entry's or
# --tol: diagnostics that document a quantity, and identities that hold
# exactly.  Keyed by the name without a trailing degree
FIXED_TOLERANCE = {
    "skms.functional_norm": DOCUMENTED,
    "entireness.indicator_n": DOCUMENTED,
    "entireness.monotone": DOCUMENTED,
    "transgression.derivative": DOCUMENTED,
    "skms_r.error_term_at_zero": 0.0,
    "alpha_r.lipschitz_in_r": 0.0,  # emitted by skms perturb sweep alone
}


@dataclass(frozen=True)
class SuiteConfig:
    """Tolerances and knobs shared by all suites.

    tol_exact gates identities that hold to rounding; the cocycle
    boundaries and Lemma 3.4 are gated by TOL_QUAD, the finite-difference
    endpoint by TOL_FD.  chain.slot_derivative runs one fixed rule,
    cochain.SLOT_DERIVATIVE_RULE, and the Dyson rows adapt their series
    order to the tolerance.  Built, it raises ValueError unless tol_exact
    is a finite number >= 0, max_degree an integer >= 1 (below 1 the
    Cocycle suite would check no degree and F.* would ask for degree -1),
    seed an integer >= 0, jobs 1 and timing a bool.
    """

    tol_exact: float = 1e-10
    max_degree: int = 5
    seed: int = 0
    # held only for perfbench/workloads.py, which passes jobs=1
    jobs: int = 1
    timing: bool = False

    def __post_init__(self):
        check_scale("tol_exact", self.tol_exact, positive=False)
        check_integer("max_degree", self.max_degree, 1)
        check_integer("seed", self.seed, 0)
        if self.jobs != 1:
            raise ValueError("jobs must be 1, the value perfbench/workloads.py passes: "
                             "the checks run one after another, got %r" % (self.jobs,))
        if not isinstance(self.timing, bool):
            raise ValueError("timing must be a bool, got %r" % (self.timing,))


def gate(measurements, tol):
    """Unstamped report rows: each measurement gated at the FIXED_TOLERANCE
    of its name, or else at tol."""
    return [make_report(*m, FIXED_TOLERANCE.get(
        m.identity_name.rstrip(string.digits), tol)) for m in measurements]


def _axioms_checks(ctx, config):
    # phi and phi^r at r = 0 and 1/2, one draw: sample i at coupling i mod 2
    def run():
        return verify_skms_axioms(ctx.at([0, 1]), samples=50, seed=config.seed)
    return [("skms.axioms", "S0", config.tol_exact, run)]


def _cocycle_checks(sys, config):
    checks = []
    unit = sys.unit()

    def normalization():
        phi_res = abs(skms_eval(sys, unit) - 1.0)
        tau_res = abs(tau_eval(sys, 0, [unit]) - 1.0)
        return [Measurement("phi.normalization", "S3", 1, phi_res),
                Measurement("tau.normalization", "main", 1, tau_res)]
    checks.append(("phi.normalization", "S3", 1e-12, normalization))

    def degeneracy():
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x0D)))
        xs = list(sys.grading.random_elements(rng, 3, parity="even"))
        worst = 0.0
        for slot in (1, 2):
            args = list(xs)
            args[slot] = 2.5 * np.eye(sys.dim, dtype=complex)
            worst = max(worst, abs(tau_eval(sys, 2, args)))
        return [Measurement("tau.degeneracy", "main", 2, worst)]
    checks.append(("tau.degeneracy", "main", 0.0, degeneracy))

    tau = jlo_cochain(sys)
    dtau = boundary(tau)
    for n in range(1, config.max_degree + 1, 2):
        def run(n=n):
            rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, 0x0B, n)))
            stacks = _draw_tuples(sys, rng, 25, n + 1, parity="even")
            worst = max(0.0, float(np.max(np.abs(dtau(n, stacks)))))
            return [Measurement("cocycle.boundary_n%d" % n, "boundary", 25, worst)]
        checks.append(("cocycle.boundary_n%d" % n, "boundary", TOL_QUAD, run))
    return checks


def _lemma34_checks(sys, config):
    def run():
        return lemma34_check(sys, n=2, samples=6, seed=config.seed)
    return [("chain.rotation", "rotation", TOL_QUAD, run)]


def _dyson_fidelity(ctx, config):
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x5D)))
    xs = ctx.grading.random_elements(rng, 3)

    def run():
        # one series per (t, order), kept on ctx, serves the three
        # elements and gamma
        worst_alpha = 0.0
        for t in (0.3, 1.0):
            val, info = dyson_alpha_info(ctx, xs, t, tol=1e-10)
            err = spectral_norms(val - heisenberg_flow(ctx, xs, t))
            budgeted = info.tail_bound + 1e-12
            worst_alpha = max(worst_alpha, float(np.max(err - budgeted)))
        # real t as well as t = i: a defect in the real-time series alone
        # leaves the t = i heat chain intact
        gamma_times = (0.3, 1.0, 1j)
        worst_gamma = 0.0
        for t in gamma_times:
            gval, ginfo = dyson_gamma_one_info(ctx, t, tol=1e-10)
            gerr = float(spectral_norms(gval - gamma_cocycle_oracle(ctx, t)))
            worst_gamma = max(worst_gamma, gerr - (ginfo.tail_bound + 1e-12))
        return [Measurement("dyson.alpha_fidelity", "dyson", 2 * len(xs),
                            max(worst_alpha, 0.0)),
                Measurement("dyson.gamma_fidelity", "dyson", len(gamma_times),
                            worst_gamma)]
    return [("dyson.alpha_fidelity", "dyson", 0.0, run)]


def _perturbation_checks(sys, ctx, config):
    half = ctx.at(1)
    return [
        ("gamma_r.composition", "L43.1", config.tol_exact,
         lambda: lemma43_check(half, samples=20, seed=config.seed)),
        ("flow.cyclic_conjugation", "analcont", config.tol_exact,
         lambda: lemma44_check(sys, n=2, samples=15, seed=config.seed)),
        ("skms_r.kms_boundary", "Fxz", config.tol_exact,
         lambda: skms_check_perturbed(half, samples=15, seed=config.seed)),
        ("F.rotation", "F1", config.tol_exact,
         lambda: f_identities_check(half, n=min(3, config.max_degree),
                                    samples=10, seed=config.seed)),
    ] + _dyson_fidelity(ctx.at(2), config) + [
        ("witten.invariance", "phi-r1", config.tol_exact,
         lambda: witten_invariance_check(sys, ctx.perturbation, grid=11))]


def _measured(rows):
    # homotopy_check and endpoint_transgression_check still return gated
    # rows, since the homotopy_d8 benchmark workload passes them tol= and
    # reads .tolerance and .passed; the suite keeps only what they measured.
    # This goes when that workload changes
    return [Measurement(r.identity_name, r.paper_anchor, r.samples, r.max_residual)
            for r in rows]


def _homotopy_checks(sys, pert, config):
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x48)))
    xs = list(sys.grading.random_elements(rng, 3, parity="even"))
    return [
        ("transgression.derivative_order", "main", 0.0,
         lambda: _measured(homotopy_check(sys, pert, 2, xs, r=0.5))),
        ("transgression.endpoint", "main", TOL_FD,
         lambda: _measured(endpoint_transgression_check(sys, pert, 2, xs))),
    ]


def _entireness_checks(sys, config):
    return [("entireness.jlo_bound", "norm", 0.0,
             lambda: entireness_diagnostic(sys, samples=32, seed=config.seed))]


def _suite_checks(spec, suite, config):
    sys, pert = build_perturbed_model(spec, config.seed)
    # the one context of the checks that select a coupling, one eigh call:
    # r = 0 and 1/2 for the functional's axioms, 1/2 for Lemma 4.3, the
    # error term and F, 0.7 for the Dyson rows
    ctx = PerturbedContext(sys, pert, (0.0, 0.5, 0.7))
    # in the order of the All suite
    bundles = {
        "axioms": lambda: _axioms_checks(ctx, config),
        "cocycle": lambda: _cocycle_checks(sys, config),
        "lemma34": lambda: _lemma34_checks(sys, config),
        "perturbation": lambda: _perturbation_checks(sys, ctx, config),
        "homotopy": lambda: _homotopy_checks(sys, pert, config),
        "entireness": lambda: _entireness_checks(sys, config),
    }
    key = suite.lower()
    if key == "all":
        return [check for make in bundles.values() for check in make()]
    if key not in bundles:
        raise ValueError("unknown suite %r; choose from %s" % (suite, SUITES))
    return bundles[key]()


def _run_one(entry, config, digest):
    """The check's measurements gated at the entry's tolerance and stamped;
    only ChainBudgetExceeded and TruncationUnreachable become a failing
    row, and any other exception propagates."""
    name, anchor, tol, fn = entry
    start = time.perf_counter()
    try:
        rows = gate(fn(), tol)
    except (ChainBudgetExceeded, TruncationUnreachable):
        # a refused check measured nothing: make_report writes the NaN as
        # DOCUMENTED, failing whatever the tolerance, DOCUMENTED included
        rows = [make_report(name, anchor, 0, math.nan, tol)]
    stamp = dict(seed=config.seed, model_digest=digest)
    if config.timing:
        stamp["wall_ms"] = (time.perf_counter() - start) * 1000.0
    return [dataclasses.replace(r, **stamp) for r in rows]


def run_suite(spec, suite, config=None):
    """Run one named suite against a ModelSpec; returns report rows.

    Only ChainBudgetExceeded and TruncationUnreachable in a check become
    a failing row; any other refusal aborts the run with no report."""
    config = config or SuiteConfig()
    digest = model_digest(spec)
    return [row for entry in _suite_checks(spec, suite, config)
            for row in _run_one(entry, config, digest)]

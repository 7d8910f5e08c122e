"""The four benchmark workloads, built on the public API of skmslab.

Each workload draws its inputs from the workload seed (`setup`), runs one
op on one input (`run_op`, the only timed call), and checks the op's
result afterwards (`check`, untimed).  Calls go through module attributes
so that the traced run's wrappers see them.  A check returns the gated
(residual, tolerance) pairs, a fingerprint that must repeat exactly on
every pass over the same input, and whether the op failed.
"""

import hashlib
import math

import numpy as np

from skmslab import cochain, kernels, perturbation
from skmslab.graded import as_matrix
from skmslab.report import DOCUMENTED
from skmslab.workbench import models, reports, suites
from skmslab.workbench.models import ModelSpec

# a suite check refused by the chain budget comes back as a row with this
# residual; it counts as a failed op even where its tolerance would let it pass
SENTINEL_RESIDUAL = 1e300


class Check:
    """Outcome of checking one op: gates, fingerprint, failure, detail."""

    def __init__(self, gates, fingerprint, failed, detail=None):
        self.gates = gates
        self.fingerprint = fingerprint
        self.failed = failed
        self.detail = detail or {}


def _seq(seed, *tags):
    return np.random.default_rng(np.random.SeedSequence((seed,) + tags))


def _even_tuple(sys_, rng, count):
    return [as_matrix(sys_.random_element(rng, parity="even"))
            for _ in range(count)]


def _gates_pass(gates):
    return all(res <= tol for res, tol in gates)


class VerifyAll:
    """`skms verify All` on the two reference specs, JSON report included."""

    name = "verify_all"
    tail_pct = 50
    min_ops = 20
    specs = (
        ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
                  perturbation={"seed": 11, "scale": 0.3}),
        # unscaled, this block fails entireness.monotone (residual 0.063
        # against 0), which would fail every op of the spec; the scale is
        # the one the acceptance criteria use for this model
        ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1, scale=1.0),
    )

    def setup(self, seed):
        for spec in self.specs:
            models.build_model(spec)
        order = _seq(seed, 0xA1).permutation(len(self.specs))
        return [self.specs[i] for i in order]

    def run_op(self, spec):
        rows = suites.run_suite(spec, "All", suites.SuiteConfig(jobs=1))
        return rows, reports.emit_report(rows, format="json")

    def check(self, spec, result):
        rows, text = result
        gated = [r for r in rows if r.tolerance != DOCUMENTED]
        sentinels = [r.identity_name for r in rows
                     if r.max_residual >= SENTINEL_RESIDUAL]
        red = [r.identity_name for r in gated if not r.passed]
        sha = hashlib.sha256(text.encode()).hexdigest()
        detail = {
            "spec": spec.kind,
            "sha256": sha,
            "rows": len(rows),
            "red_rows": red,
            "sentinel_rows": sentinels,
            # the per-row headroom: max_residual / tolerance
            "row_headroom": {r.identity_name: _ratio(r.max_residual, r.tolerance)
                             for r in gated},
        }
        return Check([(r.max_residual, r.tolerance) for r in gated], sha,
                     bool(red or sentinels), detail)


def _ratio(residual, tol):
    if residual == 0.0:
        return 0.0
    return residual / tol if tol > 0.0 else math.inf


class CocycleD10:
    """(B+b)tau on random even tuples at d = 10, degrees 1, 3, 5 equally."""

    name = "cocycle_d10"
    tail_pct = 90
    min_ops = 100
    per_degree = 4
    tol = 1e-8

    def setup(self, seed):
        spec = ModelSpec(kind="RectangularBlock", p=6, q=4, seed=3, scale=1.2)
        sys_ = models.build_model(spec)[0]
        dtau = cochain.boundary(cochain.jlo_cochain(sys_))
        rng = _seq(seed, 0x0B)
        degrees = [1, 3, 5] * self.per_degree
        degrees = [degrees[i] for i in rng.permutation(len(degrees))]
        return [(dtau, n, _even_tuple(sys_, rng, n + 1)) for n in degrees]

    def run_op(self, inp):
        dtau, n, xs = inp
        return abs(dtau(n, xs))

    def check(self, inp, result):
        gates = [(result, self.tol)]
        return Check(gates, result, not _gates_pass(gates))


class McOracle:
    """Criterion-04 instances: exact chain against Monte-Carlo quadrature.

    Besides the statistical 3-sigma gate, each op's integrand is compared
    at fixed points with a dense evaluation of the same trace.  That
    deterministic gate is the one `headroom_digits` reads: the Monte-Carlo
    residual is noise by design and moves from seed to seed.
    """

    name = "mc_oracle"
    tail_pct = 75
    min_ops = 40
    instances = 6
    samples = 100_000
    sigmas = 3.0
    spot_points = 8
    spot_tol = 1e-12
    grading = np.diag([1.0, 1.0, 1.0, -1.0, -1.0])

    def setup(self, seed):
        out = []
        for i in range(self.instances):
            rng = _seq(seed, 0x4C, i)
            n = (i % 3) + 1
            lam = np.sort(rng.random(5) * 2.0)
            basis, _ = np.linalg.qr(rng.standard_normal((5, 5))
                                    + 1j * rng.standard_normal((5, 5)))
            spec = kernels.Spectrum(lam, basis)
            g = basis @ self.grading @ basis.conj().T
            xs = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
                  for _ in range(n + 1)]
            rule = kernels.SimplexQuadratureRule("mc", self.samples,
                                                 seed=int(rng.integers(2 ** 31)),
                                                 vectorized=True)
            points = np.sort(rng.random((self.spot_points, n)), axis=1)
            out.append((spec, g, xs, n, rule, points))
        return out

    def run_op(self, inp):
        spec, g, xs, n, rule, _ = inp
        exact = kernels.chain_integral(spec, xs, g)
        integrand = kernels.heat_chain_integrand(spec, xs, g)
        approx, stderr = kernels.simplex_quadrature(integrand, n, rule)
        return exact, approx, stderr, integrand

    def check(self, inp, result):
        spec, g, xs, n, _, points = inp
        exact, approx, stderr, integrand = result
        sigma = abs(exact - approx) / stderr
        got = np.asarray(integrand(points))
        want = _dense_chain_trace(spec, g, xs, points)
        scale = 5.0 * math.prod(np.linalg.norm(x, 2) for x in xs)
        spot = float(np.max(np.abs(got - want))) / scale
        spot_gate = (spot, self.spot_tol)
        failed = sigma > self.sigmas or spot > self.spot_tol
        fingerprint = (exact, approx, stderr, got.tobytes())
        return Check([spot_gate], fingerprint, failed,
                     {"sigma": sigma, "n": n})


def _dense_chain_trace(spec, g, xs, points):
    # Tr(G x_0 e^{-g_0 H} x_1 ... x_n e^{-g_n H}) with each heat factor
    # formed densely in the original basis, one point at a time
    lam, v = spec.evals, spec.vecs
    out = []
    for s in points:
        gaps = np.diff(np.concatenate([[0.0], s, [1.0]]))
        acc = g @ xs[0]
        for k, gap in enumerate(gaps):
            heat = (v * np.exp(-gap * lam)) @ v.conj().T
            acc = acc @ heat
            if k + 1 < len(xs):
                acc = acc @ xs[k + 1]
        out.append(np.trace(acc))
    return np.array(out)


class HomotopyD8:
    """`skms homotopy check` at degree 2: Richardson ladder plus endpoint.

    Each op draws its own odd perturbation of norm 0.4, so the minimum
    headroom of a pass does not hang on one perturbation per seed.
    """

    name = "homotopy_d8"
    tail_pct = 75
    min_ops = 40
    tuples = 12
    hs = (1e-2, 5e-3, 2.5e-3)

    def setup(self, seed):
        spec = ModelSpec(kind="RectangularBlock", p=5, q=3, seed=4, scale=1.0)
        sys_ = models.build_model(spec)[0]
        rng = _seq(seed, 0x48)
        return [(sys_, self._perturbation(sys_, rng), _even_tuple(sys_, rng, 3))
                for _ in range(self.tuples)]

    @staticmethod
    def _perturbation(sys_, rng):
        d = sys_.dim
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = (m - sys_.grading.conjugate(m)) / 2
        m = (m + m.conj().T) / 2
        m *= 0.4 / np.linalg.norm(m, 2)
        return perturbation.OddPerturbation(m, sys_.grading)

    def run_op(self, inp):
        sys_, pert, xs = inp
        rows = perturbation.homotopy_check(sys_, pert, 2, xs, r=0.5,
                                           hs=self.hs, order_floor=1.9)
        rows += perturbation.endpoint_transgression_check(sys_, pert, 2, xs,
                                                          nodes=11, tol=1e-6)
        return rows

    def check(self, inp, rows):
        gated = [r for r in rows if r.tolerance != DOCUMENTED]
        gates = [(r.max_residual, r.tolerance) for r in gated]
        fingerprint = tuple(r.max_residual for r in rows)
        return Check(gates, fingerprint, not all(r.passed for r in gated))


WORKLOADS = {w.name: w for w in (VerifyAll(), CocycleD10(), McOracle(),
                                 HomotopyD8())}

"""Cochains on the graded algebra and the heat-kernel cocycle tau.

A cochain is a parity-tagged family of multilinear functionals given by an
evaluator; even cochains vanish at odd degrees and vice versa, and every
cochain here is normalized: it returns exactly 0 whenever an argument slot
i >= 1 is a scalar multiple of the identity.  The boundary is
partial = B + b with

    (b rho)_n(x_0..x_n)  = sum_{j<n} (-1)^j rho_{n-1}(.., x_j x_{j+1}, ..)
                           + (-1)^n rho_{n-1}(x_n x_0, x_1, .., x_{n-1})
    (B rho)_n(x_0..x_n)  = sum_j (-1)^{nj} rho_{n+1}(1, x_j, .., x_{j-1})

The cocycle is tau_n(x_0..x_n) = (1/Z) int_{Delta_n} supertrace of the
heat chain with insertions x_0, delta(x_1), ..., delta(x_n), nonzero in
even degrees only; (B + b) tau = 0.  The cocycle functions take a
GradedSystem or a PerturbedContext; with a context they give tau^r, built
from delta_r and e^{-sH_r} and normalized by the unperturbed Z.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import skms_eval, superderivation
from .errors import ParityViolation
from .graded import Parity, as_matrix
from .kernels import chain_integral
from .report import make_report

SCALAR_SLOT_TOL = 1e-12


def is_scalar_slot(x, tol=SCALAR_SLOT_TOL):
    """True when x is within tol of (tr x / d) times the identity."""
    m = as_matrix(x)
    d = m.shape[0]
    mean = np.trace(m) / d
    return bool(np.linalg.norm(m - mean * np.eye(d)) <= tol * max(1.0, np.linalg.norm(m)))


class Cochain:
    """Parity-tagged multilinear family given by an evaluator.

    Calling c(n, xs) returns 0 without evaluation when n has the wrong
    parity or when any slot i >= 1 is scalar; max_degree (if set) bounds
    the degrees the evaluator will be asked for.
    """

    def __init__(self, evaluator, parity, max_degree=None, name=""):
        if parity not in (Parity.EVEN, Parity.ODD):
            raise ValueError("cochain parity must be EVEN or ODD")
        self.evaluator = evaluator
        self.parity = parity
        self.max_degree = max_degree
        self.name = name

    def supports(self, n):
        if n < 0:
            return False
        if self.max_degree is not None and n > self.max_degree:
            return False
        want_even = self.parity is Parity.EVEN
        return (n % 2 == 0) == want_even

    def __call__(self, n, xs):
        if len(xs) != n + 1:
            raise ValueError("degree %d expects %d arguments, got %d"
                             % (n, n + 1, len(xs)))
        if self.max_degree is not None and n > self.max_degree:
            raise ValueError("degree %d exceeds max_degree %d" % (n, self.max_degree))
        if not self.supports(n):
            return 0.0 + 0.0j
        if any(is_scalar_slot(x) for x in xs[1:]):
            return 0.0 + 0.0j
        return complex(self.evaluator(n, list(xs)))

    def __repr__(self):
        return "Cochain(%s, parity=%s)" % (self.name or "<evaluator>", self.parity.value)


def _mul(x, y):
    return as_matrix(x) @ as_matrix(y)


def _unit_like(x):
    return np.eye(as_matrix(x).shape[0], dtype=complex)


def hochschild_b(rho, n, xs):
    """(b rho)_n(x_0..x_n); needs rho at degree n-1, so n >= 1."""
    if n < 1:
        raise ValueError("hochschild_b needs degree >= 1")
    if len(xs) != n + 1:
        raise ValueError("degree %d expects %d arguments" % (n, n + 1))
    acc = 0.0 + 0.0j
    for j in range(n):
        merged = list(xs[:j]) + [_mul(xs[j], xs[j + 1])] + list(xs[j + 2:])
        acc += (-1) ** j * rho(n - 1, merged)
    acc += (-1) ** n * rho(n - 1, [_mul(xs[n], xs[0])] + list(xs[1:n]))
    return acc


def connes_B(rho, n, xs):
    """(B rho)_n(x_0..x_n) = sum_j (-1)^{nj} rho_{n+1}(1, x_j, .., x_{j-1})."""
    if len(xs) != n + 1:
        raise ValueError("degree %d expects %d arguments" % (n, n + 1))
    unit = _unit_like(xs[0])
    acc = 0.0 + 0.0j
    for j in range(n + 1):
        rotated = [unit] + list(xs[j:]) + list(xs[:j])
        acc += (-1) ** (n * j) * rho(n + 1, rotated)
    return acc


def boundary(rho):
    """partial rho = (B + b) rho as a Cochain of flipped parity.

    At degree 0 only the B part contributes (b lowers below degree 0).
    The max_degree of the result shrinks by one since B looks upward.
    """
    flipped = Parity.ODD if rho.parity is Parity.EVEN else Parity.EVEN
    cap = None if rho.max_degree is None else rho.max_degree - 1

    def evaluator(n, xs):
        val = connes_B(rho, n, xs)
        if n >= 1:
            val += hochschild_b(rho, n, xs)
        return val

    return Cochain(evaluator, flipped, max_degree=cap,
                   name="boundary(%s)" % (rho.name or "rho"))


def _require_even(grading, xs, tol=1e-10):
    for i, x in enumerate(xs):
        if grading.classify(as_matrix(x), tol=tol) is not Parity.EVEN:
            raise ParityViolation("argument slot %d is not even" % i)


def tau_eval(sys, n, xs, budget=None):
    """The degree-n heat-kernel cocycle value at even arguments.

    tau_n(x_0..x_n) = (1/Z) int_{Delta_n} Tr(Gamma x_0 e^{-s_1 H}
    delta(x_1) ... delta(x_n) e^{-(1-s_n) H}) d^n s for even n; odd n
    returns 0 without evaluation.  Scalar slots i >= 1 return exactly 0.
    """
    if len(xs) != n + 1:
        raise ValueError("degree %d expects %d arguments" % (n, n + 1))
    if n % 2 == 1:
        return 0.0 + 0.0j
    _require_even(sys.grading, xs)
    if any(is_scalar_slot(x) for x in xs[1:]):
        return 0.0 + 0.0j
    return _tau_chain(sys, n, xs, budget)


def _tau_chain(sys, n, xs, budget):
    # tau_n at even n whose slots i >= 1 are known not to be scalar
    if n == 0:
        return skms_eval(sys, xs[0])
    chain = [as_matrix(xs[0])]
    chain += [as_matrix(superderivation(sys, x)) for x in xs[1:]]
    val = chain_integral(sys.spectrum, chain, sys.grading, budget=budget)
    return complex(val / sys.witten_index)


def jlo_cochain(sys, max_degree=None, budget=None):
    """tau as an even Cochain object (for boundary and suite plumbing).

    Cochain.__call__ has already returned 0 at odd degrees and at scalar
    slots, so the evaluator checks parity of the arguments only.
    """
    def evaluator(n, xs):
        _require_even(sys.grading, xs)
        return _tau_chain(sys, n, xs, budget)
    return Cochain(evaluator, Parity.EVEN, max_degree=max_degree, name="tau")


@dataclass(frozen=True)
class NormEstimate:
    """Sampled lower bound for |tau_n| over unit graph-norm tuples."""

    degree: int
    sampled_norm: float
    samples: int
    seed: int

    @property
    def growth_indicator(self):
        """sqrt(n) * norm^(1/n); local entireness means this decays in n."""
        if self.sampled_norm == 0.0:
            return 0.0
        return math.sqrt(self.degree) * self.sampled_norm ** (1.0 / self.degree)


def _graph_normalize(sys, m):
    nrm = np.linalg.norm(m, 2) + np.linalg.norm(as_matrix(superderivation(sys, m)), 2)
    return m if nrm == 0 else m / nrm


def entireness_diagnostic(sys, generators=None, degrees=(2, 4, 6, 8), samples=32,
                          seed=0, budget=None):
    """Sampled norms of tau_n over tuples from the generator span.

    Each argument is a random combination of the generators, normalized in
    the graph norm ||x|| + ||delta(x)||; the per-degree estimate is the max
    of |tau_n| over the sampled tuples.  Sample draws are keyed by
    (seed, degree, index), so enlarging the sample count only extends the
    set and the estimate is monotone in samples.
    """
    if generators is None:
        gen_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6E)))
        generators = [as_matrix(sys.random_element(gen_rng, parity=Parity.EVEN))
                      for _ in range(4)]
    else:
        generators = [as_matrix(g) for g in generators]
    out = []
    for n in degrees:
        best = 0.0
        for i in range(samples):
            rng = np.random.default_rng(np.random.SeedSequence((seed, n, i)))
            xs = []
            for _ in range(n + 1):
                coeff = rng.standard_normal(len(generators)) \
                    + 1j * rng.standard_normal(len(generators))
                m = sum(c * g for c, g in zip(coeff, generators))
                xs.append(_graph_normalize(sys, m))
            best = max(best, abs(tau_eval(sys, n, xs, budget=budget)))
        out.append(NormEstimate(degree=n, sampled_norm=best, samples=samples, seed=seed))
    return out


def _merge(xs, j):
    return list(xs[:j]) + [_mul(xs[j], xs[j + 1])] + list(xs[j + 2:])


def lemma34_check(sys, n=2, samples=6, tol=1e-8, order=8, seed=0, model_digest=""):
    """Rotation and slot-derivative identities of the chain functional.

    Rotation: the Delta_n integral of phi(x_0 a_{is_1}(x_1) .. a_{is_n}(x_n))
    is invariant under moving x_n (grading-twisted) to the front.  Slot
    derivative, for j = 1..n with arguments x_0..x_{n+1} on Delta_{n+1}:
    integrating d/ds_j of the chain integrand equals the difference of the
    two contracted chains that merge slots (j, j+1) and (j-1, j).  The left
    side is evaluated by Gauss quadrature, the right by the block-exponential
    chain kernel, so this doubles as a cross-oracle test.
    """
    from .kernels import SimplexQuadratureRule, heat_chain_integrand, simplex_quadrature

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x34)))
    z = sys.witten_index
    rot, slot = [], []
    quad_floor = 0.0
    for _ in range(samples):
        xs = [as_matrix(sys.random_element(rng)) for _ in range(n + 1)]
        lhs = chain_integral(sys.spectrum, xs, sys.grading) / z
        twisted = [as_matrix(sys.gamma(xs[n]))] + xs[:n]
        rhs = chain_integral(sys.spectrum, twisted, sys.grading) / z
        rot.append(abs(lhs - rhs))

        ys = [as_matrix(sys.random_element(rng)) for _ in range(n + 2)]
        h = sys.hamiltonian
        for j in range(1, n + 1):
            dys = list(ys)
            dys[j] = ys[j] @ h - h @ ys[j]
            f = heat_chain_integrand(sys.spectrum, dys, sys.grading)
            val, err = simplex_quadrature(
                f, n + 1, SimplexQuadratureRule("gauss", order, vectorized=True))
            lhs_j = val / z
            quad_floor = max(quad_floor, err / abs(z))
            rhs_j = (chain_integral(sys.spectrum, _merge(ys, j), sys.grading)
                     - chain_integral(sys.spectrum, _merge(ys, j - 1), sys.grading)) / z
            slot.append(abs(lhs_j - rhs_j))
    return [
        make_report("chain.rotation", "rotation", samples, max(rot), tol,
                    seed=seed, model_digest=model_digest),
        make_report("chain.slot_derivative", "cocycle1+cocycle2",
                    samples * n, max(slot), tol, seed=seed, model_digest=model_digest),
    ]

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

Arguments are checked where a caller enters, once.  tau_eval checks that
every argument is even and tests the slots i >= 1 for scalars.  A Cochain
built with a grading (jlo_cochain, perturbation.transgression_cochain and
the boundary of either) does both in __call__, and its evaluator checks
nothing.  The inner evaluations of rho inside boundary are not checked
again: a product of even elements is even and so is the unit, and only the
slots >= 1 that the caller has not tested (x_0 rotated there by B, a
merged product x_j x_{j+1} from b) are tested for scalars.
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


def _require_even(grading, xs, tol=1e-10):
    for i, x in enumerate(xs):
        if grading.classify(as_matrix(x), tol=tol) is not Parity.EVEN:
            raise ParityViolation("argument slot %d is not even" % i)


class Cochain:
    """Parity-tagged multilinear family given by an evaluator.

    Calling c(n, xs) checks the arity and max_degree (if set).  With a
    grading, every argument must be even, at any degree: ParityViolation
    names the first slot that is not.  It then returns 0 without evaluation
    when n has the wrong parity or when any slot i >= 1 is scalar.  So the
    evaluator only sees supported degrees and slots i >= 1 that are not
    scalar, and needs no checks of its own.
    """

    def __init__(self, evaluator, parity, max_degree=None, name="", grading=None):
        if parity not in (Parity.EVEN, Parity.ODD):
            raise ValueError("cochain parity must be EVEN or ODD")
        self.evaluator = evaluator
        self.parity = parity
        self.max_degree = max_degree
        self.name = name
        self.grading = grading

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
        if self.grading is not None:
            _require_even(self.grading, xs)
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
    The max_degree of the result shrinks by one since B looks upward.  The
    result carries rho's grading, so its __call__ checks the parity of
    x_0..x_n once and tests x_1..x_n for scalars.  connes_B and
    hochschild_b then evaluate rho without its checks: they test for a
    scalar only x_0, once, which B rotates into a slot >= 1, and each
    merged product x_j x_{j+1} that lands in a slot >= 1.  The value is
    the one that connes_B and hochschild_b give with rho itself.
    """
    flipped = Parity.ODD if rho.parity is Parity.EVEN else Parity.EVEN
    cap = None if rho.max_degree is None else rho.max_degree - 1

    def evaluator(n, xs):
        # __call__ has tested x_1..x_n; x_0 and the products are new to slots >= 1
        x0_scalar = is_scalar_slot(xs[0])
        tested = {id(x) for x in xs[1:]}

        def inner(m, ys):
            for y in ys[1:]:
                if y is xs[0]:
                    scalar = x0_scalar
                else:
                    scalar = id(y) not in tested and is_scalar_slot(y)
                if scalar:
                    return 0.0 + 0.0j
            return complex(rho.evaluator(m, ys))

        val = connes_B(inner, n, xs)
        if n >= 1:
            val += hochschild_b(inner, n, xs)
        return val

    return Cochain(evaluator, flipped, max_degree=cap,
                   name="boundary(%s)" % (rho.name or "rho"), grading=rho.grading)


def tau_eval(sys, n, xs, budget=None):
    """The degree-n heat-kernel cocycle value at even arguments.

    tau_n(x_0..x_n) = (1/Z) int_{Delta_n} Tr(Gamma x_0 e^{-s_1 H}
    delta(x_1) ... delta(x_n) e^{-(1-s_n) H}) d^n s for even n; odd n
    returns 0 without evaluation.  At even n every argument is checked to
    be even (ParityViolation names the slot), and scalar slots i >= 1
    return exactly 0.
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

    Its arguments must be even under sys.grading.  Cochain.__call__ checks
    that, and returns 0 at odd degrees and at scalar slots, so the
    evaluator is the bare chain integral.
    """
    def evaluator(n, xs):
        return _tau_chain(sys, n, xs, budget)
    return Cochain(evaluator, Parity.EVEN, max_degree=max_degree, name="tau",
                   grading=sys.grading)


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

    The generators must be even and are checked once, before any chain is
    evaluated: their combinations are even and graph normalization keeps
    them even, so each tuple is only tested for scalar slots i >= 1.
    """
    if generators is None:
        gen_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6E)))
        generators = [as_matrix(sys.random_element(gen_rng, parity=Parity.EVEN))
                      for _ in range(4)]
    else:
        generators = [as_matrix(g) for g in generators]
    _require_even(sys.grading, generators)
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
            if n % 2 == 0 and not any(is_scalar_slot(x) for x in xs[1:]):
                best = max(best, abs(_tau_chain(sys, n, xs, budget)))
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
            val, _ = simplex_quadrature(
                f, n + 1, SimplexQuadratureRule("gauss", order, vectorized=True))
            lhs_j = val / z
            rhs_j = (chain_integral(sys.spectrum, _merge(ys, j), sys.grading)
                     - chain_integral(sys.spectrum, _merge(ys, j - 1), sys.grading)) / z
            slot.append(abs(lhs_j - rhs_j))
    return [
        make_report("chain.rotation", "rotation", samples, max(rot), tol,
                    seed=seed, model_digest=model_digest),
        make_report("chain.slot_derivative", "cocycle1+cocycle2",
                    samples * n, max(slot), tol, seed=seed, model_digest=model_digest),
    ]

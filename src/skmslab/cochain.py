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

Evaluators are stacked: they take a degree and one (K, d, d) array per
slot, holding that slot of K tuples, and return the K values.  connes_B
and hochschild_b take such stacks too, with an evaluator for rho, and
send the terms of all the tuples to it as one stack; boundary's evaluator
is their sum, so each degree costs one call of the block-exponential
builder (kernels.chain_integral on a stack), and entireness_diagnostic
evaluates the samples of each degree the same way.  A stack gives every
tuple the bits it would get alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _superderivation_stack, skms_eval
from .errors import ParityViolation
from .graded import Parity, as_matrix
from .kernels import _is_stacked, _stack_slices, _stacks_of_one, chain_integral
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
    """Parity-tagged multilinear family given by a stacked evaluator.

    evaluator(n, stacks) takes a degree and n + 1 stacks, each a (K, d, d)
    array holding one slot of K tuples, and returns the K values.  Calling
    c(n, xs) on one tuple checks the arity and max_degree (if set).  With a
    grading, every argument must be even, at any degree: ParityViolation
    names the first slot that is not.  It then returns 0 without evaluation
    when n has the wrong parity or when any slot i >= 1 is scalar, and
    otherwise evaluates the tuple as a stack of one.  So the evaluator only
    sees supported degrees and slots i >= 1 that are not scalar, and needs
    no checks of its own; connes_B and hochschild_b take it in that form.
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
        return complex(self.evaluator(n, _stacks_of_one(xs))[0])

    def __repr__(self):
        return "Cochain(%s, parity=%s)" % (self.name or "<evaluator>", self.parity.value)


def _mul(x, y):
    # product of two slots: matrices, or (K, d, d) stacks slice by slice
    if np.ndim(x) == 3:
        return x @ y
    return as_matrix(x) @ as_matrix(y)


def _unit_like(x):
    if np.ndim(x) == 3:
        return np.broadcast_to(np.eye(x.shape[1], dtype=complex), x.shape)
    return np.eye(as_matrix(x).shape[0], dtype=complex)


def _merge(xs, j):
    return list(xs[:j]) + [_mul(xs[j], xs[j + 1])] + list(xs[j + 2:])


def _b_terms(n, xs):
    # (sign, tuple at degree n - 1) of each term of (b rho)_n
    terms = [((-1) ** j, _merge(xs, j)) for j in range(n)]
    terms.append(((-1) ** n, [_mul(xs[n], xs[0])] + list(xs[1:n])))
    return terms


def _B_terms(n, xs):
    # (sign, tuple at degree n + 1) of each term of (B rho)_n
    unit = _unit_like(xs[0])
    return [((-1) ** (n * j), [unit] + list(xs[j:]) + list(xs[:j]))
            for j in range(n + 1)]


def _signed_sum(terms, values):
    acc = 0.0 + 0.0j
    for (sign, _), val in zip(terms, values):
        acc += sign * val
    return acc


def _stacked_sums(evaluator, m, terms, live):
    # the signed sum of the terms for each of the K tuples; live[t] marks
    # the tuples whose term t does not vanish, and those terms of every
    # tuple go to the evaluator as one stack at degree m
    count = len(live[0])
    picks = [(t, k) for t, row in enumerate(live) for k in range(count) if row[k]]
    values = {}
    if picks:
        batch = [np.stack([terms[t][1][i][k] for t, k in picks]) for i in range(m + 1)]
        values = dict(zip(picks, evaluator(m, batch)))
    return np.array([_signed_sum(terms, [complex(values.get((t, k), 0.0 + 0.0j))
                                         for t in range(len(terms))])
                     for k in range(count)])


def hochschild_b(rho, n, xs):
    """(b rho)_n(x_0..x_n); needs rho at degree n-1, so n >= 1.

    On one tuple xs, rho(n - 1, args) is called on each term.  On n + 1
    (K, d, d) stacks holding K tuples, rho is a stacked Cochain evaluator
    and the K values are returned, as in boundary: the slots x_1..x_n must
    not be scalar, a term whose merged product x_j x_{j+1} lands scalar in
    slot j >= 1 is 0 without evaluation, and the other terms of all tuples
    go to rho as one stack.
    """
    if n < 1:
        raise ValueError("hochschild_b needs degree >= 1")
    if len(xs) != n + 1:
        raise ValueError("degree %d expects %d arguments" % (n, n + 1))
    terms = _b_terms(n, xs)
    if not _is_stacked(xs):
        return _signed_sum(terms, [rho(n - 1, args) for _, args in terms])
    every = [True] * len(xs[0])
    live = [every] + [[not is_scalar_slot(y) for y in args[j]]
                      for j, (_, args) in enumerate(terms[1:n], start=1)]
    return _stacked_sums(rho, n - 1, terms, live + [every])


def connes_B(rho, n, xs):
    """(B rho)_n(x_0..x_n) = sum_j (-1)^{nj} rho_{n+1}(1, x_j, .., x_{j-1}).

    On one tuple xs, rho(n + 1, args) is called on each term.  On n + 1
    (K, d, d) stacks holding K tuples, rho is a stacked Cochain evaluator
    and the K values are returned, as in boundary: the slots x_1..x_n must
    not be scalar, every term of a tuple whose x_0 is scalar is 0 without
    evaluation (each term puts x_0 in a slot >= 1), and the terms of the
    other tuples go to rho as one stack.
    """
    if len(xs) != n + 1:
        raise ValueError("degree %d expects %d arguments" % (n, n + 1))
    terms = _B_terms(n, xs)
    if not _is_stacked(xs):
        return _signed_sum(terms, [rho(n + 1, args) for _, args in terms])
    live = [not is_scalar_slot(x) for x in xs[0]]
    return _stacked_sums(rho, n + 1, terms, [live] * len(terms))


def boundary(rho):
    """partial rho = (B + b) rho as a Cochain of flipped parity.

    At degree 0 only the B part contributes (b lowers below degree 0).
    The max_degree of the result shrinks by one since B looks upward.  The
    result carries rho's grading, so its __call__ checks the parity of
    x_0..x_n once and tests x_1..x_n for scalars.  Its evaluator hands the
    stacks to connes_B and hochschild_b with rho's evaluator, so rho's
    checks are not repeated: a product of even elements is even, and of
    the slots >= 1 only x_0 (rotated there by B), tested once, and each
    merged product x_j x_{j+1} are new.  The surviving B terms of all
    tuples go to rho's evaluator as one stack at degree n + 1, the b terms
    as one at degree n - 1.  The values are the ones that connes_B and
    hochschild_b give with rho itself on each tuple, bit for bit.
    """
    flipped = Parity.ODD if rho.parity is Parity.EVEN else Parity.EVEN
    cap = None if rho.max_degree is None else rho.max_degree - 1

    def evaluator(n, stacks):
        vals = connes_B(rho.evaluator, n, stacks)
        if n >= 1:
            vals = vals + hochschild_b(rho.evaluator, n, stacks)
        return vals

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
    return _tau_chain(sys, n, _stacks_of_one(xs), budget)[0]


def _tau_chain(sys, n, stacks, budget):
    # tau_n at even n of the K tuples in the (K, d, d) stacks, whose slots
    # i >= 1 are known not to be scalar; one block exponential call
    if n == 0:
        return [skms_eval(sys, x) for x in stacks[0]]
    derived = _superderivation_stack(sys, np.array(stacks[1:], dtype=complex))
    vals = chain_integral(sys.spectrum, [stacks[0], *derived], sys.grading,
                          budget=budget)
    return [complex(v) / sys.witten_index for v in vals]


def jlo_cochain(sys, max_degree=None, budget=None):
    """tau as an even Cochain object (for boundary and suite plumbing).

    Its arguments must be even under sys.grading.  Cochain.__call__ checks
    that, and returns 0 at odd degrees and at scalar slots, so the
    evaluator is the bare chain integral of a stack of tuples.
    """
    def evaluator(n, stacks):
        return _tau_chain(sys, n, stacks, budget)
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


def _graph_normalize(sys, stack):
    # each slice over its graph norm ||x|| + ||delta(x)||; a zero slice stays 0
    nrm = (np.linalg.norm(stack, 2, axis=(1, 2))
           + np.linalg.norm(_superderivation_stack(sys, stack), 2, axis=(1, 2)))
    return stack / np.where(nrm == 0, 1.0, nrm)[:, None, None]


def entireness_diagnostic(sys, generators=None, degrees=(2, 4, 6, 8), samples=32,
                          seed=0, budget=None):
    """Sampled norms of tau_n over tuples from the generator span.

    Each argument is a random combination of the generators, normalized in
    the graph norm ||x|| + ||delta(x)||; the per-degree estimate is the max
    of |tau_n| over the sampled tuples.  Sample draws are keyed by
    (seed, degree, index), so enlarging the sample count only extends the
    set and the estimate is monotone in samples.  Odd degrees read 0.

    The generators must be even and are checked once, before any chain is
    evaluated: their combinations are even and graph normalization keeps
    them even, so each tuple is only tested for scalar slots i >= 1.  The
    samples of a degree are combined, normalized and evaluated as stacks,
    in consecutive groups whose block generators fit the builder's byte
    cap, so memory does not grow with samples; each tuple gets the bits it
    would get alone, and with the defaults a degree is one group and one
    block exponential call.
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
        if n % 2 == 0:
            for part in _stack_slices(samples, (n + 1) * sys.dim):
                draws = []
                for i in range(part.start, part.stop):
                    rng = np.random.default_rng(np.random.SeedSequence((seed, n, i)))
                    draws += [rng.standard_normal(len(generators))
                              + 1j * rng.standard_normal(len(generators))
                              for _ in range(n + 1)]
                coeffs = np.array(draws).T[:, :, None, None]
                mats = _graph_normalize(sys, sum(c * g for c, g in zip(coeffs, generators)))
                tuples = mats.reshape(-1, n + 1, sys.dim, sys.dim)
                keep = [t for t in tuples if not any(is_scalar_slot(x) for x in t[1:])]
                if keep:
                    values = _tau_chain(sys, n, np.stack(keep, axis=1), budget)
                    best = max([best] + [abs(v) for v in values])
        out.append(NormEstimate(degree=n, sampled_norm=best, samples=samples, seed=seed))
    return out


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

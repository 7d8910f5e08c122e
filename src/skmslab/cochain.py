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
even degrees only; (B + b) tau = 0.  The transgression G of an odd Q is
the same chain with Q inserted after each slot in turn, summed with
alternating signs, nonzero in odd degrees only.  Both come from one
constructor and one stacked evaluator, whose one call of
kernels.chain_integral takes Q for G and no insertion for tau.  The
cocycle functions take a GradedSystem or a PerturbedContext; with a
context they give tau^r (and G^r, perturbation.transgression_cochain),
built from delta_r and e^{-sH_r} and normalized by the unperturbed Z.
On a context of K couplings a tuple has K values, one per coupling, and
T tuples (K, T); the parity and scalar tests of the tuples run once.

Arguments are checked where a caller enters, once.  A Cochain built with
a grading (jlo_cochain, perturbation.transgression_cochain and the
boundary of either; tau_eval is jlo_cochain on one tuple) checks that
every argument is even, at every degree, and tests the slots i >= 1 for
scalars in __call__, and its evaluator checks nothing.  The inner
evaluations of rho inside boundary are not checked again: a product of
even elements is even and so is the unit, and only the slots >= 1 that
the caller has not tested (x_0 rotated there by B, a merged product
x_j x_{j+1} from b) are tested for scalars.

Evaluators are stacked: they take a degree and one (K, d, d) array per
slot, holding that slot of K tuples, and return the K values (one row
of them per coupling of a vector context).  A Cochain
takes such stacks in __call__ too, and tests parity and scalar slots on
whole stacks (is_scalar_slot and GradingOperator.classify take stacks);
one tuple is a stack of one.  connes_B and hochschild_b take stacks,
with an evaluator for rho, and send the terms of all the tuples to it as
one stack; boundary's evaluator is their sum, so each degree costs one
call of the block-exponential builder (kernels.chain_integral on a
stack), and entireness_diagnostic and lemma34_check evaluate their
samples the same way.  A stack gives every tuple the bits it would get
alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _draw_tuples, _superderivation_stack, skms_eval
from .errors import ParityViolation
from .graded import Parity, as_matrices, as_matrix, frobenius_norms
from .kernels import (SimplexQuadratureRule, _as_stacks, _is_stacked,
                      chain_integral, heat_chain_integrand, simplex_quadrature)
from .report import Measurement

SCALAR_SLOT_TOL = 1e-12
# the one rule of chain.slot_derivative, run at degree n + 1 of
# lemma34_check: the row's quadrature error is that of this rule alone
SLOT_DERIVATIVE_RULE = SimplexQuadratureRule("gauss", 8)


def is_scalar_slot(x):
    """True when x is within SCALAR_SLOT_TOL of (tr x / d) times the identity.

    On a (K, d, d) stack, the (K,) boolean array of the slice tests.
    """
    m = as_matrices(x)
    d = m.shape[-1]
    mean = np.trace(m, axis1=-2, axis2=-1) / d
    gap, size = frobenius_norms(np.array([m - mean[..., None, None] * np.eye(d), m]))
    scalar = gap <= SCALAR_SLOT_TOL * np.maximum(1.0, size)
    return scalar if m.ndim == 3 else bool(scalar)


def _require_even(grading, stacks):
    # ParityViolation naming the first slot that is not even in the first
    # of the K tuples that has one; one classify call per (K, d, d) slot
    bad = np.array([[p is not Parity.EVEN for p in grading.classify(s)]
                    for s in stacks])
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        where = " in tuple %d" % k if bad.shape[1] > 1 else ""
        raise ParityViolation("argument slot %d is not even%s"
                              % (int(np.argmax(bad[:, k])), where))


def _scalar_slots(stacks, count):
    # (len(stacks), count) mask of the scalar slices of (count, d, d)
    # stacks, from one is_scalar_slot call
    if not stacks:
        return np.zeros((0, count), dtype=bool)
    return is_scalar_slot(np.concatenate(stacks)).reshape(len(stacks), count)


class Cochain:
    """Parity-tagged multilinear family given by a stacked evaluator.

    evaluator(n, stacks) takes a degree and n + 1 stacks, each a (T, d, d)
    array holding one slot of T tuples, and returns the T values, or the
    (K, T) values of a cochain with couplings=(K,), whose value at a
    tuple is one per coupling (the cochains of a K-coupling context).
    Calling c(n, xs) takes the same n + 1 stacks and returns the values
    with shape couplings + (T,), or one tuple of matrices (a stack of one)
    and returns its value: a complex, or a (K,) array.  It checks the
    arity; every degree n >= 0 of the cochain's parity is supported.  With
    a grading, every argument must be even, at any degree: ParityViolation
    names the first slot that is not (and, in a stack, its tuple).  A tuple reads 0 without evaluation
    when n has the wrong parity or when any of its slots i >= 1 is scalar;
    the other tuples go to the evaluator as one stack.  So the evaluator
    only sees supported degrees and slots i >= 1 that are not scalar, and
    needs no checks of its own; connes_B and hochschild_b take it in that
    form.  Parity and scalar tests run on whole stacks, once for all the
    couplings, and each tuple gets the bits it would get alone.
    """

    def __init__(self, evaluator, parity, name="", grading=None, couplings=()):
        if parity not in (Parity.EVEN, Parity.ODD):
            raise ValueError("cochain parity must be EVEN or ODD")
        self.evaluator = evaluator
        self.parity = parity
        self.name = name
        self.grading = grading
        self.couplings = tuple(couplings)

    def supports(self, n):
        if n < 0:
            return False
        want_even = self.parity is Parity.EVEN
        return (n % 2 == 0) == want_even

    def __call__(self, n, xs):
        if len(xs) != n + 1:
            raise ValueError("degree %d expects %d arguments, got %d"
                             % (n, n + 1, len(xs)))
        stacks, one = _as_stacks(xs)
        if self.grading is not None:
            _require_even(self.grading, stacks)
        count = len(stacks[0])
        vals = np.zeros(self.couplings + (count,), dtype=complex)
        if self.supports(n):
            live = ~_scalar_slots(stacks[1:], count).any(axis=0)
            if live.all():
                vals[:] = self.evaluator(n, stacks)
            elif live.any():
                vals[..., live] = self.evaluator(n, [s[live] for s in stacks])
        if not one:
            return vals
        return vals[:, 0] if self.couplings else complex(vals[0])

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
    # the terms' values summed in order with their signs: Python complex
    # numbers, or arrays summed entry by entry with the same bits
    acc = 0.0 + 0.0j
    for (sign, _), val in zip(terms, values):
        acc = acc + sign * val
    return acc


def _stacked_sums(evaluator, m, terms, live):
    # the signed sum of the terms for each of the T tuples; live is a
    # (terms, T) mask of the terms that do not vanish, and those terms of
    # every tuple go to the evaluator as one stack at degree m.  Returns
    # (T,) values, or (K, T) when the evaluator gives one row per coupling
    live = np.asarray(live)
    values = np.zeros(live.shape, dtype=complex)
    if live.any():
        batch = [np.concatenate([args[i] for _, args in terms]) for i in range(m + 1)]
        if not live.all():
            batch = [b[live.ravel()] for b in batch]
        got = np.asarray(evaluator(m, batch))
        values = np.zeros(got.shape[:-1] + live.shape, dtype=complex)
        values[..., live] = got
    return _signed_sum(terms, values.swapaxes(0, -2))


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
    count = len(xs[0])
    merged = _scalar_slots([args[j] for j, (_, args) in enumerate(terms[1:n], start=1)],
                           count)
    every = np.ones((1, count), dtype=bool)
    return _stacked_sums(rho, n - 1, terms, np.vstack([every, ~merged, every]))


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
    live = ~is_scalar_slot(xs[0])
    return _stacked_sums(rho, n + 1, terms, [live] * len(terms))


def boundary(rho):
    """partial rho = (B + b) rho as a Cochain of flipped parity.

    At degree 0 only the B part contributes (b lowers below degree 0).  The
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

    def evaluator(n, stacks):
        vals = connes_B(rho.evaluator, n, stacks)
        if n >= 1:
            vals = vals + hochschild_b(rho.evaluator, n, stacks)
        return vals

    return Cochain(evaluator, flipped, name="boundary(%s)" % (rho.name or "rho"),
                   grading=rho.grading, couplings=rho.couplings)


def _couplings(sys):
    """() for a system or a one-coupling context, (K,) for K couplings."""
    return sys.spectrum.evals.shape[:-1]


def _against_couplings(sys, stacks):
    """(sys, stacks, shape) that set T tuples against every coupling of sys.

    For a context of K couplings, tuple t at coupling k is slice k T + t of
    the returned K T-slice stacks, and the returned context holds each
    coupling T times in a row to match; shape is (K, T), the shape the
    K T values are read back in.  A system or a one-coupling context comes
    back with the stacks as they are and shape (T,).
    """
    count = len(stacks[0])
    lead = _couplings(sys)
    if not lead:
        return sys, stacks, (count,)
    if count > 1:
        sys = sys.at(np.repeat(np.arange(lead[0]), count))
    return sys, [np.tile(s, (lead[0], 1, 1)) for s in stacks], lead + (count,)


def _chain_values(sys, n, stacks, q=None):
    # (1/Z) chain_integral(x_0, delta(x_1), .., delta(x_n); q) of the T
    # tuples in the (T, d, d) stacks, whose slots i >= 1 are known not to
    # be scalar, against every coupling of a context: (T,) or (K, T)
    # values from one call of the block builder.  tau_0 is phi(x_0)
    sys, stacks, shape = _against_couplings(sys, stacks)
    if n == 0 and q is None:
        return skms_eval(sys, stacks[0]).reshape(shape)
    derived = _superderivation_stack(sys, np.array(stacks[1:], dtype=complex))
    vals = chain_integral(sys.spectrum, [stacks[0], *derived], sys.grading, q=q)
    return (vals / sys.witten_index).reshape(shape)


def _chain_cochain(sys, q=None):
    """tau as an even Cochain, or with an odd q the transgression as an odd one.

    tau_n = (1/Z) int_{Delta_n} Tr(Gamma x_0 e^{-s_1 H} delta(x_1) ...
    delta(x_n) e^{-(1-s_n) H}) d^n s; with q, the alternating sum of the
    same chains with q inserted after each slot in turn (chain_integral
    with q), which is G^r for a context and q = Q.  Cochain.__call__
    checks that the arguments are even and returns 0 at the other parity
    and at scalar slots, so the evaluator is the bare chain integral of a
    stack of tuples: (K, T) values for T tuples on K couplings, from one
    call of the block builder.
    """
    parity, name = (Parity.EVEN, "tau") if q is None else (Parity.ODD, "G_r")
    return Cochain(lambda n, stacks: _chain_values(sys, n, stacks, q), parity,
                   name=name, grading=sys.grading, couplings=_couplings(sys))


def jlo_cochain(sys):
    """tau as an even Cochain; see _chain_cochain."""
    return _chain_cochain(sys)


def tau_eval(sys, n, xs):
    """The degree-n heat-kernel cocycle value: jlo_cochain(sys)(n, xs)."""
    return jlo_cochain(sys)(n, xs)


@dataclass(frozen=True)
class NormEstimate:
    """Sampled lower bound for |tau_n| over unit graph-norm tuples."""

    degree: int
    sampled_norm: float
    samples: int

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
                          seed=0):
    """Sampled norms of tau_n over tuples from the generator span.

    Each argument is a random combination of the generators, normalized in
    the graph norm ||x|| + ||delta(x)||; the per-degree estimate is the max
    of |tau_n| over the sampled tuples.  Sample draws are keyed by
    (seed, degree, index), so enlarging the sample count only extends the
    set and the estimate is monotone in samples.  Odd degrees read 0.

    The generators must be even and are checked once, before any chain is
    evaluated: their combinations are even and graph normalization keeps
    them even, so each tuple is only tested for scalar slots i >= 1.  The
    samples of a degree are combined, normalized and evaluated as one
    stack, in one call of the block builder, whose workspace is a few
    arrays of the stack's block rows; each tuple gets the bits it would
    get alone.
    """
    if generators is None:
        gen_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6E)))
        generators = [sys.random_element(gen_rng, parity=Parity.EVEN)
                      for _ in range(4)]
    else:
        generators = [as_matrix(g) for g in generators]
    _require_even(sys.grading, [g[None] for g in generators])
    out = []
    for n in degrees:
        best = 0.0
        if n % 2 == 0 and samples > 0:
            draws = []
            for i in range(samples):
                rng = np.random.default_rng(np.random.SeedSequence((seed, n, i)))
                # slot by slot, the real then the imaginary parts
                z = rng.standard_normal((n + 1, 2, len(generators)))
                draws.append(z[:, 0] + 1j * z[:, 1])
            coeffs = np.concatenate(draws).T[:, :, None, None]
            mats = _graph_normalize(sys, sum(c * g for c, g in zip(coeffs, generators)))
            tuples = mats.reshape(-1, n + 1, sys.dim, sys.dim)
            stacks = list(tuples.swapaxes(0, 1))
            keep = ~_scalar_slots(stacks[1:], len(tuples)).any(axis=0)
            if keep.any():
                values = _chain_values(sys, n, [s[keep] for s in stacks])
                best = max([best] + [abs(v) for v in values.tolist()])
        out.append(NormEstimate(degree=n, sampled_norm=best, samples=samples))
    return out


def _chains_by_degree(sys, tuples):
    """Chain integrals of tuples of stacks, one block exponential per degree.

    Each tuple is a list of (K_t, d, d) stacks, slot by slot.  The tuples
    of one degree are concatenated into one stack for chain_integral on
    sys.spectrum and sys.grading; returns the (K_t,) values of each tuple,
    in order, with the bits each gets alone.
    """
    groups = {}
    for i, slots in enumerate(tuples):
        groups.setdefault(len(slots), []).append(i)
    out = [None] * len(tuples)
    for size, members in groups.items():
        stacks = [np.concatenate([tuples[i][j] for i in members]) for j in range(size)]
        vals = chain_integral(sys.spectrum, stacks, sys.grading)
        cuts = np.cumsum([len(tuples[i][0]) for i in members])[:-1]
        for i, part in zip(members, np.split(vals, cuts)):
            out[i] = part
    return out


def lemma34_check(sys, n=2, samples=6, seed=0):
    """Rotation and slot-derivative identities of the chain functional.

    Rotation: the Delta_n integral of phi(x_0 a_{is_1}(x_1) .. a_{is_n}(x_n))
    is invariant under moving x_n (grading-twisted) to the front.  Slot
    derivative, for j = 1..n with arguments x_0..x_{n+1} on Delta_{n+1}:
    integrating d/ds_j of the chain integrand equals the difference of the
    two contracted chains that merge slots (j, j+1) and (j-1, j).  The left
    side is evaluated by SLOT_DERIVATIVE_RULE, Gauss order 8, the right by
    the block-exponential chain kernel, so this doubles as a cross-oracle
    test.  The samples are drawn as one stack, and every chain, all of
    degree n, goes to one call of the block builder.  Returns a
    Measurement per identity.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x34)))
    z = sys.witten_index
    draws = _draw_tuples(sys, rng, samples, 2 * n + 3)
    xs, ys = draws[:n + 1], draws[n + 1:]
    twisted = [sys.gamma(xs[n])] + xs[:n]
    chains = _chains_by_degree(sys, [xs, twisted]
                               + [_merge(ys, j) for j in range(n + 1)])
    rot = np.abs(chains[0] / z - chains[1] / z)

    h = sys.hamiltonian
    slot = []
    for k in range(samples):
        for j in range(1, n + 1):
            dys = [y[k] for y in ys]
            dys[j] = ys[j][k] @ h - h @ ys[j][k]
            f = heat_chain_integrand(sys.spectrum, dys, sys.grading)
            val, _ = simplex_quadrature(f, n + 1, SLOT_DERIVATIVE_RULE)
            rhs = (complex(chains[2 + j][k]) - complex(chains[1 + j][k])) / z
            slot.append(abs(val / z - rhs))
    return [Measurement("chain.rotation", "rotation", samples, float(np.max(rot))),
            Measurement("chain.slot_derivative", "cocycle1+cocycle2", samples * n,
                        max(slot))]

"""Cochains on the graded algebra and the heat-kernel cocycle tau.

A cochain is a parity-tagged family of multilinear functionals given by an
evaluator; even cochains vanish at odd degrees and vice versa.  The
boundary is partial = B + b with

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
T tuples (K, T); the parity tests of the tuples run once.

tau and G are normalized: they vanish when a slot i >= 1 is c times the
unit, because that slot enters the chain as delta_r(c 1) = 0 (Jaffe,
Lesniewski & Osterwalder, CMP 118, 1988; normalized cochains as in
Connes, Publ. IHES 62, 1985).  No test for scalar slots enforces it: the
chain computes it.  delta_r(c 1) = Q c - c Q is exactly 0 for real and
for purely imaginary c, so the value is exactly 0 there; for a general
complex c the two complex products round apart, and the value is at
rounding level (a few 1e-18 at c = 0.1 + 0.3i, d = 5).

Arguments are checked where a caller enters, once.  A Cochain built with
a grading (jlo_cochain, perturbation.transgression_cochain and the
boundary of either; tau_eval is jlo_cochain on one tuple) checks that
every argument is even, at every degree, in __call__, and its evaluator
checks nothing.  The inner evaluations of rho inside boundary are not
checked again: a product of even elements is even and so is the unit.

Evaluators are stacked: they take a degree and one (K, d, d) array per
slot, holding that slot of K tuples, and return the K values (one row
of them per coupling of a vector context).  A Cochain takes such stacks
in __call__ too, and tests parity on whole stacks
(GradingOperator.classify takes stacks); one tuple is a stack of one.
connes_B and hochschild_b take a stacked rho (a Cochain or its
evaluator) on one tuple or on stacks, and send the terms of all the
tuples to it as one stack; boundary's evaluator is their sum, so each
degree costs one call of the block-exponential builder
(kernels.chain_integral on a stack).  One helper, _by_degree, batches
tuples by degree for all of them, and for the chains of lemma34_check
and perturbation.f_identities_check; entireness_diagnostic reads every
degree of its samples off one call.  A stack gives every tuple the bits
it would get alone.
"""

import math

import numpy as np

from .dynamics import _draw_tuples, _superderivation_stack
from .errors import ParityViolation, check_integer
from .graded import Parity
from .kernels import (SimplexQuadratureRule, _as_stacks, _chain_prefixes,
                      chain_integral, heat_chain_integrand, simplex_quadrature)
from .report import Measurement

# the one rule of chain.slot_derivative, run at degree n + 1 of
# lemma34_check: the row's quadrature error is that of this rule alone
SLOT_DERIVATIVE_RULE = SimplexQuadratureRule("gauss", 8)
# the entireness rows read tau at every even degree up to this one, each
# a prefix of one tuple per sample
ENTIRENESS_TOP = 12


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


class Cochain:
    """Parity-tagged multilinear family given by a stacked evaluator.

    evaluator(n, stacks) takes a degree and n + 1 stacks, each a (T, d, d)
    array holding one slot of T tuples, and returns the T values, or the
    (K, T) values of a cochain with couplings=(K,), whose value at a
    tuple is one per coupling (the cochains of a K-coupling context).
    Calling c(n, xs) takes the same n + 1 stacks and returns the values
    with shape couplings + (T,), or one tuple of matrices (a stack of one)
    and returns its value: a complex, or a (K,) array.  It checks the
    arity; every degree n >= 0 of the cochain's parity is supported, and a
    degree that is not an integer >= 0 raises ValueError.  With
    a grading, every argument must be even, at any degree: ParityViolation
    names the first slot that is not (and, in a stack, its tuple).  At a
    degree n of the wrong parity every tuple reads 0 without evaluation;
    at the others the tuples go to the evaluator as one stack.  So the
    evaluator only sees supported degrees and needs no checks of its own;
    connes_B and hochschild_b take it, or the Cochain, as rho.  Parity
    tests run on whole stacks, once for all the couplings, and each tuple
    gets the bits it would get alone.
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
        check_integer("degree", n, 0)
        if len(xs) != n + 1:
            raise ValueError("degree %d expects %d arguments, got %d"
                             % (n, n + 1, len(xs)))
        stacks, one = _as_stacks(xs)
        if self.grading is not None:
            _require_even(self.grading, stacks)
        vals = np.zeros(self.couplings + (len(stacks[0]),), dtype=complex)
        if self.supports(n):
            vals[:] = self.evaluator(n, stacks)
        return _one_value(vals, one)

    def __repr__(self):
        return "Cochain(%s, parity=%s)" % (self.name or "<evaluator>", self.parity.value)


def _one_value(vals, one):
    # the (T,) or (K, T) values of a stack as they are; for one tuple, a
    # stack of one, its value: a complex, or one per coupling (K,)
    if not one:
        return vals
    return complex(vals[0]) if vals.ndim == 1 else vals[:, 0]


def _by_degree(evaluator, tuples):
    """evaluator's values at tuples of stacks, one call per degree.

    Each tuple is a list of (T_t, d, d) stacks, slot by slot.  The tuples
    of one degree m are concatenated into one stack for evaluator(m,
    stacks), whose (T,) or (K, T) values are split back on the last axis:
    the (T_t,) or (K, T_t) values of each tuple, in order, with the bits
    each gets alone.  Values of another shape, as a per-tuple function
    gives, raise ValueError.
    """
    groups = {}
    for i, slots in enumerate(tuples):
        groups.setdefault(len(slots), []).append(i)
    out = [None] * len(tuples)
    for size, members in groups.items():
        stacks = [np.concatenate([tuples[i][j] for i in members]) for j in range(size)]
        vals = np.asarray(evaluator(size - 1, stacks))
        if vals.shape[-1:] != (len(stacks[0]),):
            raise ValueError("a stacked evaluator gives one value per tuple on the "
                             "last axis: %d tuples, values of shape %s"
                             % (len(stacks[0]), vals.shape))
        stop = 0
        for i in members:
            start, stop = stop, stop + len(tuples[i][0])
            out[i] = vals[..., start:stop]
    return out


def _merge(xs, j):
    return list(xs[:j]) + [xs[j] @ xs[j + 1]] + list(xs[j + 2:])


def _b_terms(n, xs):
    # (sign, tuple at degree n - 1) of each term of (b rho)_n
    terms = [((-1) ** j, _merge(xs, j)) for j in range(n)]
    terms.append(((-1) ** n, [xs[n] @ xs[0]] + list(xs[1:n])))
    return terms


def _B_terms(n, xs):
    # (sign, tuple at degree n + 1) of each term of (B rho)_n
    unit = np.broadcast_to(np.eye(xs[0].shape[1], dtype=complex), xs[0].shape)
    return [((-1) ** (n * j), [unit] + list(xs[j:]) + list(xs[:j]))
            for j in range(n + 1)]


def _term_sum(rho, n, xs, terms_of):
    # the signed sum over the terms terms_of(n, stacks) of rho's values;
    # the terms of all the tuples go to rho as one stack
    if len(xs) != n + 1:
        raise ValueError("degree %d expects %d arguments" % (n, n + 1))
    stacks, one = _as_stacks(xs)
    terms = terms_of(n, stacks)
    values = _by_degree(rho, [args for _, args in terms])
    return _one_value(sum((sign * val for (sign, _), val in zip(terms, values)),
                          0.0 + 0.0j), one)


def hochschild_b(rho, n, xs):
    """(b rho)_n(x_0..x_n); needs rho at degree n-1, so n >= 1.

    rho is stacked: a Cochain or its evaluator.  xs is one tuple, whose
    value is returned (a complex, or one per coupling), or n + 1 (T, d, d)
    stacks holding T tuples, whose T values are returned; the terms of all
    the tuples go to rho as one stack, one call.
    """
    check_integer("degree", n, 1)
    return _term_sum(rho, n, xs, _b_terms)


def connes_B(rho, n, xs):
    """(B rho)_n(x_0..x_n) = sum_j (-1)^{nj} rho_{n+1}(1, x_j, .., x_{j-1}).

    rho and xs as for hochschild_b: a stacked rho, on one tuple or on
    stacks, and one call of rho for the terms of all the tuples.
    """
    check_integer("degree", n, 0)
    return _term_sum(rho, n, xs, _B_terms)


def boundary(rho):
    """partial rho = (B + b) rho as a Cochain of flipped parity.

    At degree 0 only the B part contributes (b lowers below degree 0).  The
    result carries rho's grading, so its __call__ checks the parity of
    x_0..x_n once.  Its evaluator hands the stacks to connes_B and
    hochschild_b with rho's evaluator, so rho's checks are not repeated: a
    product of even elements is even.  The B terms of all tuples go to
    rho's evaluator as one stack at degree n + 1, the b terms as one at
    degree n - 1.  The values are the ones that connes_B and hochschild_b
    give with rho itself on each tuple, bit for bit.
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
    # tuples in the (T, d, d) stacks, against every coupling of a context:
    # (T,) or (K, T) values from one call of the block builder, n = 0
    # included: tau_0 is the kernel's contraction Tr(Gamma x_0 e^{-H}) / Z
    sys, stacks, shape = _against_couplings(sys, stacks)
    # a temporary, not a name, so the stack is freed before the chain
    derived = _superderivation_stack(
        sys, np.array(stacks[1:], dtype=complex).reshape((n,) + stacks[0].shape))
    vals = chain_integral(sys.spectrum, [stacks[0], *derived], sys.grading, q=q)
    return (vals / sys.witten_index).reshape(shape)


def _chain_cochain(sys, q=None):
    """tau as an even Cochain, or with an odd q the transgression as an odd one.

    tau_n = (1/Z) int_{Delta_n} Tr(Gamma x_0 e^{-s_1 H} delta(x_1) ...
    delta(x_n) e^{-(1-s_n) H}) d^n s; with q, the alternating sum of the
    same chains with q inserted after each slot in turn (chain_integral
    with q), which is G^r for a context and q = Q.  Cochain.__call__
    checks that the arguments are even and returns 0 at the other parity,
    so the evaluator is the bare chain integral of a stack of tuples:
    (K, T) values for T tuples on K couplings, from one call of the block
    builder.  A slot i >= 1 that is c times the unit reads 0 through
    delta_r(c 1) = 0; see the module docstring.
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


def _graph_normalize(sys, stack):
    # each slice over its graph norm ||x|| + ||delta(x)||; a zero slice stays 0
    nrm = (np.linalg.norm(stack, 2, axis=(1, 2))
           + np.linalg.norm(_superderivation_stack(sys, stack), 2, axis=(1, 2)))
    return stack / np.where(nrm == 0, 1.0, nrm)[:, None, None]


def entireness_diagnostic(sys, samples=32, seed=0):
    """Growth of tau_n at the even n <= ENTIRENESS_TOP, as measurements.

    Sample i is one tuple x_0 .. x_ENTIRENESS_TOP drawn from (seed, i), so
    a larger samples extends the set; each x_j is an even combination of
    four generators drawn from seed, normalized in the graph norm
    ||x|| + ||delta(x)||.  tau_n of a sample is its prefix x_0 .. x_n, and
    every prefix of every sample is one call of the block builder.  With
    m_n the max of |tau_n| over the samples, the rows are
    - entireness.indicator_n<n>: sqrt(n) m_n^(1/n), or 0 at m_n = 0;
    - entireness.monotone: the indicator's largest rise between degrees;
    - entireness.jlo_bound: max(0, max_n m_n n! |Z| / Tr(e^{-H}) - 1),
      exactly 0 for every draw: by Hoelder and the simplex volume 1/n!,
      |tau_n| <= Tr(e^{-H}) / (|Z| n!) at unit graph norm (Jaffe,
      Lesniewski & Osterwalder, CMP 118, 1988).
    samples must be an integer >= 1, checked before any draw (ValueError).
    """
    check_integer("samples", samples, 1)
    gen_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6E)))
    generators = sys.random_elements(gen_rng, 4, parity=Parity.EVEN)
    # sample by sample, slot by slot, the real then the imaginary parts
    z = np.concatenate([np.random.default_rng(np.random.SeedSequence((seed, i)))
                        .standard_normal((ENTIRENESS_TOP + 1, 2, len(generators)))
                        for i in range(samples)])
    coeffs = (z[:, 0] + 1j * z[:, 1]).T[:, :, None, None]
    mats = _graph_normalize(sys, sum(c * g for c, g in zip(coeffs, generators)))
    slots = mats.reshape(samples, ENTIRENESS_TOP + 1, sys.dim, sys.dim).swapaxes(0, 1)
    chains = _chain_prefixes(sys.spectrum, [slots[0], *_superderivation_stack(sys, slots[1:])],
                             sys.grading)
    degrees = range(2, ENTIRENESS_TOP + 1, 2)
    best = np.abs(chains[:, degrees] / sys.witten_index).max(axis=0).tolist()
    indicators = [0.0 if m == 0.0 else math.sqrt(n) * m ** (1.0 / n)
                  for n, m in zip(degrees, best)]
    rise = max([0.0] + [b - a for a, b in zip(indicators, indicators[1:])])
    heat = float(np.sum(np.exp(-sys.spectrum.evals)))
    ratio = max(m * math.factorial(n) * abs(sys.witten_index) / heat
                for n, m in zip(degrees, best))
    count = samples * len(degrees)
    return ([Measurement("entireness.indicator_n%d" % n, "norm", samples, ind)
             for n, ind in zip(degrees, indicators)]
            + [Measurement("entireness.monotone", "norm", count, rise),
               Measurement("entireness.jlo_bound", "norm", count, max(0.0, ratio - 1.0))])


def _chains_by_degree(sys, tuples):
    """chain_integral on sys.spectrum and sys.grading of tuples of stacks,
    one call per degree: _by_degree with the chain as the evaluator."""
    return _by_degree(lambda m, stacks: chain_integral(sys.spectrum, stacks, sys.grading),
                      tuples)


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
    Measurement per identity; n must be an integer >= 1 (ValueError).
    """
    check_integer("n", n, 1)
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

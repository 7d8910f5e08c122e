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
constructor and one pool evaluator, whose one call of
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

Tuples have one layout, the pool of kernels.chain_integral: an
(M, d, d) array of matrices and an (n + 1, T) integer table, slot i of
tuple t being pool[index[i, t]].  Stacks are this module's: a Cochain
takes n + 1 (T, d, d) stacks in __call__, or one tuple of matrices as a
stack of one, tests parity in one GradingOperator.classify call on
all the slots, and hands its evaluator, evaluator(pool, tables), the
pool of the stacks with a list of one table; the evaluator returns one
value array per table, the T values of a table of T tuples (one row of
them per coupling of a vector context), and tables may be of different
degrees.  n + 1 empty stacks read no values, without evaluation.  B, b
and B + b are one operator over rho, a Cochain, whose terms are
rotations and merges of the argument slots.  Each part reads only its
own terms: B adds one unit to the pool, b the products x_j x_{j+1} and
x_n x_0, each formed once; _B_terms and _b_terms give the pool, the
signs and one table, term j in columns j T .. (j + 1) T, built by index
arithmetic.  The operator takes the tables of all its parts to one pool
and one call of rho's evaluator, whose slices are summed in term order.
So the boundary of tau or G^r takes delta_r once over the entries that
slots >= 1 of B's and b's terms read (_tau_pool), and the kernel takes
each entry to each eigenbasis once and makes one call of the
block-exponential builder per degree, at n + 1 for B and n - 1 for b.
entireness_diagnostic builds its chains in _tau_pool too.  The chains of
lemma34_check and perturbation.f_identities_check, of several degrees,
go to the kernel as one list of tables; entireness_diagnostic reads
every degree of its samples off one call.  A stack gives every tuple
the bits it would get alone.
"""

import functools
import math

import numpy as np

from .dynamics import _draw_tuples, _superderivation_stack
from .errors import DimensionMismatch, ParityViolation, check_integer
from .graded import Parity, as_matrix, spectral_norms
from .kernels import (SimplexQuadratureRule, _chain_prefixes, _first_tuple, _split_table,
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
    # of the K tuples that has one; one classify call on every slot at once
    bad = np.array([p is not Parity.EVEN for p in grading.classify(np.concatenate(stacks))]
                   ).reshape(len(stacks), -1)
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        where = " in tuple %d" % k if bad.shape[1] > 1 else ""
        raise ParityViolation("argument slot %d is not even%s"
                              % (int(np.argmax(bad[:, k])), where))


def _as_stacks(xs):
    # (n + 1 (K, d, d) stacks, True when xs was one tuple of matrices);
    # stacks of different shapes raise DimensionMismatch naming them, before
    # any work, since a pool of them would be indexed wrong without an error
    if len(xs) > 0 and all(np.ndim(x) == 3 for x in xs):
        stacks, one = list(xs), False
    else:
        stacks, one = [as_matrix(x)[None] for x in xs], True
    shapes = [np.shape(s) for s in stacks]
    if any(shape != shapes[0] for shape in shapes):
        raise DimensionMismatch("insertions must be (K, d, d) stacks of one shape, got %s"
                                % (shapes,))
    return stacks, one


def _pool_of(tuples):
    """One pool of the stacks of tuples, and each tuple's table into it.

    Each tuple is a list of (T_t, d, d) stacks, slot by slot.  A stack
    that recurs, in another slot or tuple (the same array), is one run of
    the pool; a tuple's table is its (slots, T_t) array of pool indices.
    """
    runs, parts, tables, size = {}, [], [], 0
    for slots in tuples:
        starts = []
        for stack in slots:
            if id(stack) not in runs:
                runs[id(stack)] = size
                parts.append(stack)
                size += len(stack)
            starts.append(runs[id(stack)])
        tables.append(np.array(starts)[:, None] + np.arange(len(slots[0])))
    return np.concatenate(parts, dtype=complex), tables


class Cochain:
    """Parity-tagged multilinear family given by a pool evaluator.

    evaluator(pool, tables) takes an (M, d, d) pool of matrices and a list
    of (n + 1, T) integer tables, of any degrees, slot i of tuple t of a
    table being pool[index[i, t]], and returns one value array per table:
    its T values, or the (K, T) values of a cochain with couplings=(K,),
    whose value at a tuple is one per coupling (the cochains of a
    K-coupling context).  Calling c(n, xs) takes n + 1 (T, d, d) stacks,
    slot by slot, and returns the values with shape couplings + (T,), or
    one tuple of matrices (a stack of one) and returns its value: a
    complex, or a (K,) array; the stacks become one pool, each stack one
    run of it, and a list of one table of those runs.  It checks the
    arity and the shapes (DimensionMismatch names them when the stacks
    differ); every degree n >= 0 of the cochain's parity is supported,
    and a degree that is not an integer >= 0 raises ValueError.  With a
    grading, every argument must be even, at any degree: ParityViolation
    names the first slot that is not (and, in a stack, its tuple).  At a
    degree n of the wrong parity, and on empty stacks, every tuple reads
    0 without evaluation; at the others the tuples go to the evaluator as
    one pool.  So the evaluator only sees supported degrees and at least
    one tuple per table, and needs no checks of its own.  Parity is one
    test of all the slots, once for all the couplings, and each tuple
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
        if self.supports(n) and len(stacks[0]):
            pool, tables = _pool_of([stacks])
            vals[:] = self.evaluator(pool, tables)[0]
        return _first_tuple(vals) if one else vals

    def __repr__(self):
        return "Cochain(%s, parity=%s)" % (self.name or "<evaluator>", self.parity.value)


def _merge(xs, j):
    return list(xs[:j]) + [xs[j] @ xs[j + 1]] + list(xs[j + 2:])


@functools.lru_cache(maxsize=None)
def _rotations(n):
    # row i - 1 of B's term j at degree n reads argument slot i - 1 + j mod
    # n + 1: rotations[i - 1, j]
    rotations = (np.arange(n + 1)[:, None] + np.arange(n + 1)) % (n + 1)
    rotations.setflags(write=False)
    return rotations


@functools.lru_cache(maxsize=None)
def _merges(n):
    # row i of b's term j at degree n >= 1 reads row merges[i, j] of the
    # arguments over the products, 2 (n + 1) rows, product j being x_j
    # x_{j+1}, or x_n x_0 at j = n
    i, j = np.arange(n)[:, None], np.arange(n + 1)
    merges = np.where(i == j, n + 1 + j, np.where(i < j, i, i + 1))
    merges[0, n] = 2 * n + 1
    merges.setflags(write=False)
    return merges


def _B_terms(n, pool, index):
    # (pool, signs, table at degree n + 1) of the n + 1 terms of (B rho)_n
    # at the tuples of the (n + 1, T) table index, term j in columns
    # j T .. (j + 1) T: B's terms read the arguments and the unit, which
    # the pool gains at its end
    unit = np.full((1, index.size), len(pool))
    return (np.concatenate([pool, np.eye(pool.shape[-1], dtype=complex)[None]]),
            [(-1) ** (n * j) for j in range(n + 1)],
            np.concatenate([unit, index[_rotations(n)].reshape(n + 1, -1)]))


def _b_terms(n, pool, index):
    # (pool, signs, table at degree n - 1) of the n + 1 terms of (b rho)_n
    # at the tuples of the (n + 1, T) table index, term j in columns
    # j T .. (j + 1) T: b's terms read the arguments and the products
    # x_j x_{j+1}, j < n, and x_n x_0 of every tuple, which the pool gains
    # at its end
    after = index[_rotations(n)[1]]
    rows = np.concatenate([index, len(pool) + np.arange(index.size).reshape(index.shape)])
    return (np.concatenate([pool, (pool[index] @ pool[after]).reshape((-1,) + pool.shape[1:])]),
            [(-1) ** j for j in range(n + 1)], rows[_merges(n)].reshape(n, -1))


def _term_sums(rho, pool, terms):
    # the signed sum of rho's values at the terms of each (signs, table),
    # term j in columns j T .. (j + 1) T: one call of rho for every table,
    # and each table's slices summed in term order from 0j, the bits of the
    # terms taken one by one.  A sign is +1 or -1, and a - v is a + (-v)
    # bit for bit
    tables = [table for _, table in terms]
    values = rho(pool, tables)
    if len(values) != len(tables):
        raise ValueError("a cochain evaluator gives one value array per table: "
                         "%d tables, %d arrays" % (len(tables), len(values)))
    sums = []
    for (signs, table), vals in zip(terms, values):
        vals = np.asarray(vals)
        if vals.shape[-1:] != table.shape[1:]:
            raise ValueError("a cochain evaluator gives one value per tuple on the "
                             "last axis: %d tuples, values of shape %s"
                             % (table.shape[1], vals.shape))
        count = table.shape[1] // len(signs)
        total = 0.0 + 0.0j
        for j, sign in enumerate(signs):
            part = vals[..., j * count:(j + 1) * count]
            total = total + part if sign > 0 else total - part
        sums.append(total)
    return sums


def _operator(rho, parts, name):
    """The parts of (B + b) rho, _B_terms and/or _b_terms, as a Cochain.

    It has rho's grading and couplings and the flipped parity.  Its
    evaluator takes every part of every table, B before b and b left out
    at degree 0, to one pool, each part adding to it what its terms read,
    and to one call of rho's evaluator; a table's value is the sum of its
    parts' _term_sums.  rho must be a Cochain (TypeError).
    """
    if not isinstance(rho, Cochain):
        raise TypeError("rho must be a Cochain, got %s" % type(rho).__name__)
    flipped = Parity.ODD if rho.parity is Parity.EVEN else Parity.EVEN

    def evaluator(pool, tables):
        counts, terms = [], []
        for index in tables:
            n = len(index) - 1
            chosen = [part for part in parts if n or part is not _b_terms]
            counts.append(len(chosen))
            for part in chosen:
                pool, signs, table = part(n, pool, index)
                terms.append((signs, table))
        sums = iter(_term_sums(rho.evaluator, pool, terms))
        return [sum(next(sums) for _ in range(count)) for count in counts]

    return Cochain(evaluator, flipped, name="%s(%s)" % (name, rho.name or "rho"),
                   grading=rho.grading, couplings=rho.couplings)


def hochschild_b(rho, n, xs):
    """(b rho)_n(x_0..x_n); needs rho at degree n-1, so n >= 1.

    rho is a Cochain, not a bare evaluator (TypeError).  xs is one tuple,
    whose value is returned (a complex, or one per coupling), or n + 1
    (T, d, d) stacks holding T tuples, whose T values are returned, and
    rho's grading checks them once; where rho reads 0 so does b, without
    calling rho.  The terms read only xs and the products x_j x_{j+1} and
    x_n x_0, and go to rho's evaluator as one table, in one call.
    """
    check_integer("degree", n, 1)
    return _operator(rho, (_b_terms,), "b")(n, xs)


def connes_B(rho, n, xs):
    """(B rho)_n(x_0..x_n) = sum_j (-1)^{nj} rho_{n+1}(1, x_j, .., x_{j-1}).

    rho and xs as for hochschild_b; the terms read only xs and one unit.
    """
    return _operator(rho, (_B_terms,), "B")(n, xs)


def boundary(rho):
    """partial rho = (B + b) rho as a Cochain of flipped parity.

    rho is a Cochain, not a bare evaluator (TypeError).  At degree 0 only
    the B part contributes (b lowers below degree 0).  The result carries
    rho's grading, so its __call__ checks the parity of x_0..x_n once,
    and its evaluator takes the terms to rho's evaluator, whose checks
    are not repeated: a product of even elements is even.  B and b each
    form only what their terms read, in one pool, and go to one call of
    rho's evaluator as one table each, at degree n + 1 and n - 1.  The
    values are the ones that connes_B and hochschild_b give with rho on
    each tuple, bit for bit.
    """
    return _operator(rho, (_B_terms, _b_terms), "boundary")


def _couplings(sys):
    """() for a system or a one-coupling context, (K,) for K couplings."""
    return sys.spectrum.evals.shape[:-1]


def _require_one_coupling(sys, what):
    # what reads one coupling, so a vector context's stacks are refused
    if _couplings(sys):
        raise ValueError(what + " takes a one-coupling context; select one with ctx.at(k)")


def _tau_pool(sys, pool, tables):
    # (pool, tables) of the chains x_0, delta_r(x_1), .., delta_r(x_n) of
    # the tuples of the (n + 1, T) tables, against every coupling of a
    # context: the entries slot 0 of any table reads as they are, then
    # delta_r of the entries slots >= 1 read, each once over all the
    # tables, for all K couplings at once: the (K, d, d) supercharges
    # broadcast against an (M, 1, d, d) stack
    entries, count, tables = _split_table(tables, len(pool))
    lead = _couplings(sys)
    heads, rest = pool[entries[:count]], pool[entries[count:]]
    derived = _superderivation_stack(sys, rest[:, None] if lead else rest)
    if lead:
        heads, derived = np.broadcast_to(heads, lead + heads.shape), derived.swapaxes(0, 1)
    return np.concatenate([heads, derived], axis=-3), tables


def _chain_values(sys, pool, tables, q=None):
    # (1/Z) chain_integral(x_0, delta(x_1), .., delta(x_n); q) of the tuples
    # of each table, against every coupling of a context: (T,) or (K, T)
    # values per table from one call of the block builder per degree, n = 0
    # included: tau_0 is the kernel's contraction Tr(Gamma x_0 e^{-H}) / Z
    pool, tables = _tau_pool(sys, pool, tables)
    return [vals / sys.witten_index
            for vals in chain_integral(sys.spectrum, pool, sys.grading, q, tables)]


def _chain_cochain(sys, q=None):
    """tau as an even Cochain, or with an odd q the transgression as an odd one.

    tau_n = (1/Z) int_{Delta_n} Tr(Gamma x_0 e^{-s_1 H} delta(x_1) ...
    delta(x_n) e^{-(1-s_n) H}) d^n s; with q, the alternating sum of the
    same chains with q inserted after each slot in turn (chain_integral
    with q), which is G^r for a context and q = Q.  Cochain.__call__
    checks that the arguments are even and returns 0 at the other parity,
    so the evaluator is the bare chain integral of a pool of tuples:
    (K, T) values for T tuples on K couplings, from one call of the block
    builder.  A slot i >= 1 that is c times the unit reads 0 through
    delta_r(c 1) = 0; see the module docstring.
    """
    parity, name = (Parity.EVEN, "tau") if q is None else (Parity.ODD, "G_r")
    return Cochain(lambda pool, tables: _chain_values(sys, pool, tables, q), parity,
                   name=name, grading=sys.grading, couplings=_couplings(sys))


def jlo_cochain(sys):
    """tau as an even Cochain; see _chain_cochain."""
    return _chain_cochain(sys)


def tau_eval(sys, n, xs):
    """The degree-n heat-kernel cocycle value: jlo_cochain(sys)(n, xs)."""
    return jlo_cochain(sys)(n, xs)


def _graph_normalize(sys, stack):
    # each slice over its graph norm ||x|| + ||delta(x)||; a zero slice stays 0
    nrm = spectral_norms(stack) + spectral_norms(_superderivation_stack(sys, stack))
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
    samples must be an integer >= 1, checked before any draw, and a vector
    context is refused (ValueError).
    """
    check_integer("samples", samples, 1)
    _require_one_coupling(sys, "entireness_diagnostic")
    gen_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6E)))
    generators = sys.grading.random_elements(gen_rng, 4, parity=Parity.EVEN)
    # sample by sample, slot by slot, the real then the imaginary parts
    z = np.concatenate([np.random.default_rng(np.random.SeedSequence((seed, i)))
                        .standard_normal((ENTIRENESS_TOP + 1, 2, len(generators)))
                        for i in range(samples)])
    coeffs = (z[:, 0] + 1j * z[:, 1]).T[:, :, None, None]
    mats = _graph_normalize(sys, sum(c * g for c, g in zip(coeffs, generators)))
    pool, (table,) = _tau_pool(sys, mats, [np.arange(len(mats)).reshape(samples, -1).T])
    chains = _chain_prefixes(sys.spectrum, pool, sys.grading, table)
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
    Measurement per identity; n must be an integer >= 1, and a vector
    context is refused (ValueError).
    """
    check_integer("n", n, 1)
    _require_one_coupling(sys, "lemma34_check")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x34)))
    z = sys.witten_index
    draws = _draw_tuples(sys, rng, samples, 2 * n + 3)
    xs, ys = draws[:n + 1], draws[n + 1:]
    twisted = [sys.grading.conjugate(xs[n])] + xs[:n]
    pool, tables = _pool_of([xs, twisted] + [_merge(ys, j) for j in range(n + 1)])
    chains = chain_integral(sys.spectrum, pool, sys.grading, index=tables)
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

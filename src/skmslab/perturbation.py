"""Perturbed dynamics, functional and cocycles, with transgression.

An odd selfadjoint Q deforms the superderivation to delta_r = delta +
r[Q, .], which squares to ad(H_r) with H_r = H + a_r, a_r = r delta(Q) +
r^2 Q^2 = (Q0 + rQ)^2 - Q0^2.  A PerturbedContext carries Q0 + rQ and
H_r under the attribute names of a GradedSystem, so the dynamics and
cochain functions evaluate delta_r, alpha^r, phi^r and tau^r when called
with it; r = 0 is the unperturbed system.  The Dyson series for the flow
and for the cocycle gamma^r, at real t and at t = i alike, take their
terms from one block exponential with c H on the diagonal blocks and
c a_r on the superdiagonal, c = it, and are checked against the exact
finite-dimensional conjugation oracles

    gamma^r_t(1) = e^{itH_r} e^{-itH},   alpha^r_t(x) = e^{itH_r} x e^{-itH_r},
    gamma^r_i(1) = e^{-H_r} e^{H},       phi^r(x) = Tr(Gamma x e^{-H_r}) / Z,

where Z is the unperturbed normalization.  The transgression cochain G^r
certifies d tau^r / dr = -(B + b) G^r degree by degree.  It is tau^r's
cochain with Q inserted after each slot in turn (cochain._chain_cochain,
whose one chain_integral call per degree takes q = Q).

A PerturbedContext takes one coupling or a vector of K: the vector
context stacks its per-coupling data on a leading (K,) axis, with one
eigh call for all K Hamiltonians, so the checks that walk a grid of
couplings (the Gauss-Legendre nodes of the endpoint check, the +/- h
ladder, the Witten grid, the Lipschitz pairs) evaluate the grid as one
stack: tau^r, G^r and their boundaries give one value per coupling, and
each degree is one call of the block-exponential builder.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cochain import (_chain_cochain, _chains_by_degree, _couplings, _merge, boundary,
                      tau_eval)
from .dynamics import (GradedSystem, _conjugation, _draw_tuples, _functional_residuals,
                       _odd_selfadjoint, _super_gibbs, heisenberg_flow, skms_eval,
                       superderivation)
from .errors import TruncationUnreachable, check_integer
from .graded import _require_selfadjoint, as_matrices, as_matrix, spectral_norms
# chain_integral is bound here too: perfbench traces perturbation.chain_integral
from .kernels import (Spectrum, _edge, _heat_chain_blocks,  # noqa: F401
                      _refuse_over_budget, chain_integral, gauss_legendre_01)
from .report import DOCUMENTED, Measurement, make_report

SERIES_CAP = 40


class OddPerturbation:
    """Odd selfadjoint perturbation Q in the grading given, to graded.GRADING_TOL."""

    def __init__(self, q, grading):
        self.matrix = _odd_selfadjoint(as_matrix(q), grading, "perturbation")


class PerturbedContext:
    """Frozen data for one coupling value r in [0, 1], or for a vector of them.

    Carries what the dynamics and cochain functions read from a
    GradedSystem: grading, supercharge Q0 + rQ, hamiltonian H_r = H + a_r,
    its spectrum, the weight Gamma e^{-H_r}, and witten_index, which is
    the unperturbed Z that phi^r is normalized by; witten_index_r is
    Tr(Gamma e^{-H_r}).  Tail bounds for the Dyson series are driven by
    the constant 2*||a_r||.

    A 1-d r of K couplings gives one context for all of them: supercharge,
    a_r, hamiltonian and the weight are (K, d, d) stacks, the spectrum is a
    stack (evals (K, d), vecs (K, d, d), from one eigh call), and
    witten_index_r and a_norm are (K,).  The dynamics functions then pair
    slice k of a (K, d, d) stack with coupling k, and the cochains tau^r,
    G^r and their boundaries give one value per coupling: (K, T) for T
    tuples.  at(index) selects couplings without a new eigendecomposition.
    A scalar r keeps the (d, d) attributes.  The finite, selfadjoint and
    even guards on a_r run per coupling, and ParityViolation names the
    first coupling that fails.
    """

    _PER_COUPLING = ("r", "supercharge", "a_r", "hamiltonian", "a_norm",
                     "witten_index_r", "_weight")

    def __init__(self, system, perturbation, r):
        if not isinstance(system, GradedSystem):
            raise TypeError("system must be a GradedSystem")
        if not isinstance(perturbation, OddPerturbation):
            perturbation = OddPerturbation(perturbation, system.grading)
        self.system = system
        self.grading = system.grading
        self.perturbation = perturbation
        if np.ndim(r) == 0:
            self.r = rr = float(r)
        elif np.ndim(r) == 1:
            self.r = np.array(r, dtype=float)
            self.r.setflags(write=False)
            rr = self.r[:, None, None]
        else:
            raise ValueError("r must be a number or a 1-d sequence of couplings")
        if not np.all(np.isfinite(self.r)):
            # NaN would pass every range test and fail inside eigh
            raise ValueError("coupling r must be finite, got %r" % (r,))
        q = perturbation.matrix
        self.supercharge = system.supercharge + rr * q
        self.delta_q = superderivation(system, q)
        self.q_squared = q @ q
        self.a_r = rr * self.delta_q + rr ** 2 * self.q_squared
        _require_selfadjoint(self.a_r, "a_r", system.grading, r=self.r)
        # the sum the Dyson series expand around; (Q0 + rQ)^2 differs at rounding level
        self.hamiltonian = system.hamiltonian + self.a_r
        evals, vecs = np.linalg.eigh(self.hamiltonian)
        self.spectrum = Spectrum(evals, vecs)
        self.witten_index_r, self._weight = _super_gibbs(self.grading, self.spectrum)
        self.witten_index = system.witten_index

    def at(self, index):
        """The context of the couplings r[index] of a vector context.

        An integer gives a one-coupling context with (d, d) attributes, an
        index array or slice a vector context; the arrays are taken from
        this context, with no new eigendecomposition.
        """
        if np.ndim(self.r) == 0:
            raise TypeError("at() selects couplings of a vector context")
        sub = object.__new__(PerturbedContext)
        sub.__dict__.update(self.__dict__)
        # a_norm is taken only if it was read, else left for sub to compute
        for name in self._PER_COUPLING:
            if name in self.__dict__:
                value = self.__dict__[name][index]
                setattr(sub, name, float(value) if np.ndim(value) == 0 else value)
        sub.spectrum = Spectrum(self.spectrum.evals[index], self.spectrum.vecs[index])
        return sub

    @functools.cached_property
    def a_norm(self):
        """||a_r||, (K,) for a vector context; an eigvalsh of the Gram, so
        taken on first read."""
        norm = spectral_norms(self.a_r)
        return float(norm) if np.ndim(norm) == 0 else norm

    @property
    def dim(self):
        return self.system.dim

    def tail_bound(self, t, order, norm_x=1.0):
        """sum_{n > order} (|t| ||2 a_r||)^n / n!, scaled by norm_x; inf on overflow."""
        y = 2.0 * abs(t) * self.a_norm
        if y == 0.0:
            return 0.0
        try:
            term = y ** (order + 1) / math.factorial(order + 1)
        except OverflowError:
            return math.inf
        total = 0.0
        k = order + 1
        while term > 0.0:
            total += term
            k += 1
            term *= y / k
            if term <= total * 1e-17:
                break
        return total * norm_x

    def choose_order(self, t, tol, norm_x=1.0):
        for order in range(SERIES_CAP + 1):
            if self.tail_bound(t, order, norm_x) <= tol:
                return order
        raise TruncationUnreachable("no series order <= %d reaches tolerance %g at t = %s"
                                    % (SERIES_CAP, tol, t))


def gamma_cocycle_oracle(ctx, t):
    """Exact gamma^r_t(1) = e^{itH_r} e^{-itH}; t may be complex (t = i)."""
    if complex(t) == 0:
        return np.eye(ctx.dim, dtype=complex)
    return gamma_flow_oracle(ctx, np.eye(ctx.dim), t)


def gamma_flow_oracle(ctx, x, t):
    """Exact gamma^r_t(x) = e^{itH_r} x e^{-itH} = gamma^r_t(1) alpha_t(x).

    x may be a (K, d, d) stack; dynamics._conjugation, not heisenberg_flow, conjugates it.
    """
    return _conjugation(ctx.spectrum, as_matrices(x), complex(t), ctx.system.spectrum)


@dataclass(frozen=True)
class DysonInfo:
    """Truncation order and a priori tail bound of a Dyson series value.

    Each term is read off a block exponential, exact up to rounding, so
    the truncation tail is the whole error budget.
    """

    order: int
    tail_bound: float


def _dyson_info(ctx, t, tol, order, norm_x=1.0):
    # the order given, or the least whose tail meets tol, and its tail bound,
    # of either series to time t >= 0.  A NaN t would pass tail_bound's loop
    # test as a zero tail, and an infinite one price a NaN block exponential
    if not math.isfinite(t):
        raise ValueError("t must be finite, got %r" % (t,))
    if _couplings(ctx):
        raise ValueError("a Dyson series takes a one-coupling context; "
                         "select one with ctx.at(k)")
    if order is None:
        order = ctx.choose_order(t, tol, norm_x)
    elif order < 0:
        raise ValueError("series order must be >= 0, got %d" % order)
    elif order > SERIES_CAP:
        raise TruncationUnreachable("requested order %d exceeds cap %d" % (order, SERIES_CAP))
    return DysonInfo(order, ctx.tail_bound(t, order, norm_x))


def _gamma_terms(ctx, t, order):
    # terms 0..order of gamma^r_t(1) in the eigenbasis of H, an
    # (order + 1, d, d) array.  With c = it, term k is
    #   c^k int_{Delta_k} e^{c s_1 H} a_r e^{c (s_2-s_1) H} .. a_r
    #       e^{c (1-s_k) H} d^k s  e^{-cH},
    # whose part before e^{-cH} is block (0, k) of the exponential with
    # c H on the diagonal blocks and c a_r on the superdiagonal.  The
    # context keeps them by (t, order), made on first use: at() copies
    # __dict__, but only of a vector context, which a Dyson series refuses
    memo = ctx.__dict__.setdefault("_gamma_memo", {})
    key = (complex(t), order)
    if key not in memo:
        spec = ctx.system.spectrum
        c = 1j * complex(t)
        y = c * spec.to_eigenbasis(ctx.a_r)
        run = _edge(0, 1, y, np.zeros((1, order), dtype=int))
        what = "Dyson series with d=%d, order=%d" % (spec.dim, order)
        blocks = _heat_chain_blocks(spec, [run], what, scale=c)[0]
        memo[key] = blocks * np.exp(-c * spec.evals)
    return memo[key]


def dyson_alpha_info(ctx, x, t, tol=1e-10, order=None):
    """Truncated Dyson series for alpha^r_t(x) with error metadata.

    Returns (matrix, DysonInfo).  The order adapts to tol through the term
    bound (|t| ||2 a_r||)^n / n! unless given; a negative order or a
    non-finite t raises ValueError.  The series is sum_{j+l <= order}
    Gamma_j alpha_t(x) Gamma_l^*, with Gamma_j the terms of gamma^r_t(1),
    all read off block row 0 of one ((order+1)d)-square block exponential,
    priced against the chain budget.  x may be a (K, d, d) stack: one series serves every
    slice, its order and tail bound taken at the largest ||x_k||, and the
    (K, d, d) values come back.  The context keeps the terms of each
    (t, order), so dyson_gamma_one_info at that (t, order) reuses them.
    """
    xm = as_matrices(x)
    t = float(t)
    norm_x = float(np.max(spectral_norms(xm)))
    info = _dyson_info(ctx, t, tol, order, norm_x)
    flow = heisenberg_flow(ctx.system, xm, t)
    if ctx.a_norm == 0.0 or t == 0.0 or info.order == 0:
        return flow, info
    terms = ctx.system.spectrum.from_eigenbasis(_gamma_terms(ctx, t, info.order))
    # prefix[j] = Gamma_0 + .. + Gamma_{order-j}
    prefix = np.cumsum(terms, axis=0)[::-1]
    series = terms @ np.expand_dims(flow, -3) @ prefix.conj().swapaxes(1, 2)
    return series.sum(axis=-3), info


def dyson_gamma_one_info(ctx, t, tol=1e-10, order=None):
    """Truncated series for gamma^r_t(1) with error metadata.

    Real t and t = i take one path: with c = it, the series terms are
    matrix-valued chains against e^{csH}, read off block row 0 of one
    ((order+1)d)-square block exponential priced against the chain
    budget; t = i is the heat chain, c = -1.  Only the point t = i is
    supported on the imaginary axis; a negative order or a non-finite t
    raises ValueError.
    The terms are shared with dyson_alpha_info, as there.
    """
    t = complex(t)
    if t.imag != 0.0 and t != 1j:
        raise ValueError("imaginary-time evaluation supports only t = i")
    info = _dyson_info(ctx, abs(t), tol, order)
    if ctx.a_norm == 0.0 or t == 0 or info.order == 0:
        return np.eye(ctx.dim, dtype=complex), info
    terms = _gamma_terms(ctx, t, info.order)
    return ctx.system.spectrum.from_eigenbasis(terms.sum(axis=0)), info


def error_term(ctx, t):
    """e(t) = delta(gamma^r_t(1)) + r Q gamma^r_t(1) - r gamma^r_t(1) alpha_t(Q).

    Vanishes identically in this realization; e(0) = 0 holds exactly
    because gamma^r_0(1) is the exact identity.
    """
    g = gamma_cocycle_oracle(ctx, t)
    q = ctx.perturbation.matrix
    return (superderivation(ctx.system, g)
            + ctx.r * (q @ g)
            - ctx.r * (g @ heisenberg_flow(ctx.system, q, t)))


# ---------------------------------------------------------------------------
# perturbed chains, cocycle and transgression


def tau_r_eval(ctx, n, xs):
    """tau^r_n = F^r_n(x_0, delta_r(x_1), ..., delta_r(x_n)); see tau_eval."""
    return tau_eval(ctx, n, xs)


def transgression_cochain(ctx):
    """G^r_m = sum_k (-1)^k F^r_{m+1}(x_0, d_r x_1, .., d_r x_k, Q, d_r x_{k+1}, ..).

    F^r is the chain against e^{-sH_r} over Z.  An odd Cochain,
    cochain._chain_cochain with q = Q: the m + 1 chains are read off one
    (2(m+1)d)-square block exponential, priced against SKMS_CHAIN_BUDGET.
    Arguments must be even; it is 0 at even degrees, and at a slot i >= 1
    that is c times the unit through delta_r(c 1) = 0 (exactly for real
    and purely imaginary c; see cochain).  On K couplings T tuples give
    (K, T) values.
    """
    return _chain_cochain(ctx, ctx.perturbation.matrix)


# ---------------------------------------------------------------------------
# checkers: measurements, which the workbench gates into rows; the two
# transgression checks still gate their own rows


def lemma43_check(ctx, samples=50, seed=0):
    """Cocycle algebra of gamma^r_t(1), t = 0.3 and 1: four exact-oracle equalities.

    The samples are drawn as one stack and evaluated as stacks; gamma^r at
    t, t/2 and -t is computed once per t.  The adjoint and unitarity row
    depends on t alone, so its value at t stands for every sample.
    """
    sys = ctx.system
    ts = (0.3, 1.0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x43)))
    x, y = _draw_tuples(sys, rng, samples, 2)
    unit = np.eye(ctx.dim)
    gcomp, gstar, acomp, gprod = [], [], [], []
    for t in ts:
        s = 0.5 * t
        g_t = gamma_cocycle_oracle(ctx, t)
        g_s = gamma_cocycle_oracle(ctx, s)
        lhs = gamma_flow_oracle(ctx, x, t)
        inner = gamma_flow_oracle(ctx, x, t - s)
        gcomp.append(spectral_norms(lhs - g_s @ heisenberg_flow(sys, inner, s)))

        rhs2 = heisenberg_flow(sys, gamma_cocycle_oracle(ctx, -t), t)
        gstar.append(np.max(spectral_norms(np.array([
            g_t.conj().T - rhs2, g_t @ g_t.conj().T - unit, g_t.conj().T @ g_t - unit]))))

        flow_r = heisenberg_flow(ctx, x, t)
        rhs3 = g_t @ heisenberg_flow(sys, x, t) @ g_t.conj().T
        acomp.append(spectral_norms(flow_r - rhs3))

        lhs4 = flow_r @ gamma_flow_oracle(ctx, y, t)
        gprod.append(spectral_norms(lhs4 - gamma_flow_oracle(ctx, x @ y, t)))
    count = samples * len(ts)
    rows = [
        ("gamma_r.composition", "L43.1", np.max(gcomp)),
        ("gamma_r.adjoint_unitarity", "L43.2", max(gstar)),
        ("alpha_r.conjugation", "L43.3", np.max(acomp)),
        ("gamma_r.multiplicativity", "L43.4", np.max(gprod)),
    ]
    return [Measurement(name, anchor, count, float(res)) for name, anchor, res in rows]


def lemma44_check(sys, n=2, samples=20, seed=0):
    """Complex-time conjugation and reflection identities for phi.

    Each sample draws its n + 1 elements and then its n times, so the
    draws stay per sample; the identities are evaluated on the stack of
    all samples, each flow with one time per slice.  n must be an integer
    >= 0 and samples one >= 1 (ValueError).
    """
    check_integer("n", n, 0)
    check_integer("samples", samples, 1)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x44)))
    draws, times = [], []
    for _ in range(samples):
        draws.append(sys.random_elements(rng, n + 1))
        ims = np.sort(rng.random(n))
        res = rng.uniform(-1.0, 1.0, n)
        times.append([complex(a, b) for a, b in zip(res, ims)])
    xs = list(np.array(draws).swapaxes(0, 1))
    zs = np.array(times, dtype=complex).T

    def flowed(elements, at):
        # alpha_{z_1}(x_1) alpha_{z_2}(x_2) .. over the (x_k, z_k) in turn
        prod = np.broadcast_to(np.eye(sys.dim, dtype=complex), xs[0].shape)
        for x, z in zip(elements, at):
            prod = prod @ heisenberg_flow(sys, x, z)
        return prod

    lhs = skms_eval(sys, flowed(xs[1:], zs) @ heisenberg_flow(sys, xs[0], 1j))
    rhs = skms_eval(sys, xs[0] @ flowed([sys.gamma(x) for x in xs[1:]], zs))
    conj_res = np.abs(lhs - rhs)
    lhs2 = np.conj(skms_eval(sys, flowed(xs[:0:-1], np.conj(zs[::-1]))))
    fwd = flowed([x.conj().swapaxes(1, 2) for x in xs[1:]], zs)
    refl_res = np.abs(lhs2 - skms_eval(sys, fwd))
    return [Measurement("flow.cyclic_conjugation", "analcont", samples,
                        float(np.max(conj_res))),
            Measurement("flow.reflection", "analcont", samples, float(np.max(refl_res)))]


def skms_check_perturbed(ctx, samples=25, seed=0):
    """Functional axioms for phi^r against (alpha^r, delta_r, H_r), t = 0, 0.3, 1.

    All flows use the exact oracles so residuals reflect the algebra, not
    series truncation.  dynamics._functional_residuals gives the axioms
    shared with verify_skms_axioms, delta_r^2 = ad(H_r) among them (S5,
    skms_r.delta_squared_ad_h); this check adds the KMS boundary
    through gamma^r_i, the error-term identity phi(z e(t)) = 0 and the
    exact vanishing of e(0).  The samples are drawn as one stack and
    evaluated as stacks; e(t) is computed once per t.
    """
    sys = ctx.system
    ts = (0.0, 0.3, 1.0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x45)))
    x, y, w = _draw_tuples(sys, rng, samples, 3)
    res = _functional_residuals(ctx, x, y, w, ts)
    gamma_i = gamma_cocycle_oracle(ctx, 1j)
    errors = [error_term(ctx, t) for t in ts]  # e(0) first
    bound, err_t = [], []
    for t, e in zip(ts, errors):
        lhs = skms_eval(sys, x @ heisenberg_flow(ctx, y, t + 1j) @ gamma_i)
        rhs = skms_eval(sys, heisenberg_flow(ctx, y, t) @ sys.gamma(x) @ gamma_i)
        bound.append(np.abs(lhs - rhs))
        err_t.append(np.abs(skms_eval(sys, w @ e)))
    res["kms_boundary"] = (samples * len(ts), float(np.max(bound)))
    res["error_term"] = (samples * len(ts), float(np.max(err_t)))
    rows = [("hermiticity", "S0"), ("alpha_invariance", "S1"),
            ("gamma_invariance", "S1"), ("kms_boundary", "Fxz"),
            ("normalization", "phi-r1"), ("delta_invariance", "S4"),
            ("delta_squared_ad_h", "S5"), ("weak_supersymmetry", "S5"),
            ("error_term", "lem2")]
    return ([Measurement("skms_r." + name, anchor, *res[name]) for name, anchor in rows]
            + [Measurement("skms_r.error_term_at_zero", "lem2", 1,
                           float(spectral_norms(errors[0])))])


def f_identities_check(ctx, n=3, samples=10, seed=0):
    """The five chain identities behind the perturbed cocycle.

    Rotation, the two heat-commutator contractions (inner slot and last
    slot), unit insertion, and the cyclic derivation sum.  The samples are
    drawn as one stack, and the chains of each degree n - 1, n, n + 1 go
    to one call of the block builder.  n must be an integer >= 1
    (ValueError): the last-slot identity contracts x_{n-1} x_n."""
    check_integer("n", n, 1)
    sys = ctx.system
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x46)))
    xs = _draw_tuples(sys, rng, samples, n + 1)
    gxs = [sys.gamma(x) for x in xs]
    h = ctx.hamiltonian
    unit = np.broadcast_to(np.eye(ctx.dim, dtype=complex), xs[0].shape)

    def commuted(k):
        mod = list(xs)
        mod[k] = h @ xs[k] - xs[k] @ h
        return mod

    # every chain of the five identities, in the order they are read below
    tuples = [xs, [gxs[n]] + xs[:n]]
    for k in range(1, n):
        tuples += [commuted(k), _merge(xs, k - 1), _merge(xs, k)]
    tuples += [commuted(n), _merge(xs, n - 1), [gxs[n] @ xs[0]] + xs[1:n]]
    tuples += [[unit] + xs[j:] + gxs[:j] for j in range(n + 1)]
    tuples += [gxs[:j] + [superderivation(ctx, xs[j])] + xs[j + 1:]
               for j in range(n + 1)]
    values = iter([v / ctx.witten_index for v in _chains_by_degree(ctx, tuples)])

    plain = next(values)
    rot = np.abs(plain - next(values))
    inner = []
    for k in range(1, n):
        lhs2 = next(values)
        inner.append(np.abs(lhs2 - (next(values) - next(values))))
    lhs3 = next(values)
    last = np.abs(lhs3 - (next(values) - next(values)))
    total = sum((next(values) for _ in range(n + 1)), 0.0 + 0.0j)
    unit_ins = np.abs(total - plain)
    cyc = np.abs(sum((next(values) for _ in range(n + 1)), 0.0 + 0.0j))
    rows = [
        ("F.rotation", "F1", samples, np.max(rot)),
        ("F.heat_commutator_inner", "F2", samples * max(0, n - 1),
         np.max(inner) if inner else 0.0),
        ("F.heat_commutator_last", "F4", samples, np.max(last)),
        ("F.unit_insertion", "F5", samples, np.max(unit_ins)),
        ("F.derivation_cycle", "F6", samples, np.max(cyc)),
    ]
    return [Measurement(name, anchor, ns, float(res)) for name, anchor, ns, res in rows]


def witten_invariance_check(system, perturbation, grid=11):
    """Tr(Gamma e^{-H_r}) and phi^r(1) are r-independent (McKean-Singer).

    The grid has both ends r = 0 and r = 1, so it needs an integer grid
    >= 2; anything else raises ValueError.  The grid is one context, whose
    grid eigendecompositions are priced at grid d^3 against the chain
    budget before it is built (ChainBudgetExceeded).
    """
    check_integer("the coupling grid of at least 2 points", grid, 2)
    d = system.dim
    _refuse_over_budget(float(grid) * d ** 3, "a coupling grid of %d at d=%d needs %d "
                        "eigendecompositions of cost %d * %d^3", grid, d, grid, grid, d)
    ctx = PerturbedContext(system, perturbation, np.linspace(0.0, 1.0, grid))
    worst_z = float(np.max(np.abs(ctx.witten_index_r - system.witten_index)))
    worst_unit = float(np.max(np.abs(skms_eval(ctx, np.eye(system.dim)) - 1.0)))
    return [Measurement("witten.invariance", "phi-r1", grid, worst_z),
            Measurement("phi_r.normalization", "phi-r1", grid, worst_unit)]


def lipschitz_check(system, perturbation, samples=100, seed=0):
    """Exact-oracle flows never exceed the coupling Lipschitz bound.

    Bound: ||alpha^r_t(x) - alpha^q_t(x)|| <=
    2 |q - r| (||delta(Q)|| + ||Q^2||) |t| e^{2(||delta(Q)|| + ||Q^2||)} ||x||.
    The reported residual is the worst bound violation (0 when satisfied,
    and when e^{2(..)} overflows a float, where the bound is infinite).
    The samples are drawn one after another, each its x, t and pair of
    couplings; the first and the second couplings of all samples are then
    one context each, and the flows one stack, slice k at sample k.
    samples must be an integer >= 1 (ValueError).
    """
    check_integer("samples", samples, 1)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x47)))
    xs, ts, pairs = [], [], []
    for _ in range(samples):
        xs.append(system.random_elements(rng, 1)[0])
        ts.append(rng.uniform(-1.0, 1.0))
        pairs.append(rng.random(2))
    xs, ts = np.array(xs), np.array(ts)
    r1, r2 = np.array(pairs).T
    ctx, other = (PerturbedContext(system, perturbation, r) for r in (r1, r2))
    diff = spectral_norms(heisenberg_flow(ctx, xs, ts) - heisenberg_flow(other, xs, ts))
    c = float(spectral_norms(ctx.delta_q) + spectral_norms(ctx.q_squared))
    try:
        factor = 2.0 * c * math.exp(2.0 * c)
    except OverflowError:
        factor = math.inf
    bound = np.abs(r1 - r2) * np.abs(ts) * factor
    worst = max(0.0, float(np.max(diff - bound)))
    return [Measurement("alpha_r.lipschitz_in_r", "lipschitz", samples, worst)]


def homotopy_steps(r, hs):
    """The steps hs, largest first, checked for central differences at r.

    Each step must be positive, there must be at least two (the order is
    read off a pair of them), and r +/- h must stay in [0, 1]; ValueError
    otherwise.
    """
    for h in hs:
        if not h > 0.0:
            raise ValueError("step h = %r must be positive" % (h,))
    hs = tuple(sorted(hs, reverse=True))
    if len(hs) < 2:
        raise ValueError("the convergence order needs at least two steps, got %d"
                         % len(hs))
    if r - hs[0] < 0.0 or r + hs[0] > 1.0:
        raise ValueError("step r +/- h leaves [0, 1]: r = %r, h = %r"
                         % (r, hs[0]))
    return hs


def homotopy_check(system, perturbation, n, xs, r=0.5, hs=(1e-2, 5e-3, 2.5e-3),
                   order_floor=1.9):
    """Central differences of tau^r against the transgression boundary.

    Compares (tau^{r+h}_n - tau^{r-h}_n)/(2h) with -(B G^r + b G^r)_n for
    the literal transgression sum and estimates the Richardson convergence
    order across the h ladder.  The sign is fixed, not read off the data:
    the heat factors e^{-s H_r} differentiate to inward insertions of
    -da_r/dr, while the literal alternating sum produces the opposite
    orientation, so d tau^r / dr = -(B + b) G^r.  A negated G fails the
    order row here and the endpoint row of endpoint_transgression_check.

    The order row reports the deficit below order_floor (0 when the
    observed order clears it); below the noise floor it passes trivially
    (both sides vanish, e.g. Q = 0).  The raw residual at the smallest h
    is included as a documentation row.
    """
    check_integer("degree", n, 0)
    hs = homotopy_steps(r, hs)
    # r, then the ladder r + h and r - h for every h: one context
    ctx = PerturbedContext(system, perturbation,
                           [r] + [r + h for h in hs] + [r - h for h in hs])
    exact = boundary(transgression_cochain(ctx.at(0)))(n, xs)
    taus = tau_r_eval(ctx.at(slice(1, None)), n, xs).tolist()
    fds = [(up - dn) / (2.0 * h)
           for h, up, dn in zip(hs, taus[:len(hs)], taus[len(hs):])]
    resids = [abs(fd + exact) for fd in fds]
    noise_floor = 5e-13
    if max(resids) <= noise_floor:
        deficit = 0.0
    else:
        orders = [math.log(resids[i] / resids[i + 1])
                  / math.log(hs[i] / hs[i + 1])
                  for i in range(len(hs) - 1)
                  if resids[i + 1] > 0.0]
        deficit = max(0.0, order_floor - min(orders)) if orders else order_floor
    return [make_report("transgression.derivative", "main", len(hs), resids[-1],
                        DOCUMENTED),
            make_report("transgression.derivative_order", "main", len(hs), deficit, 0.0)]


def endpoint_transgression_check(system, perturbation, n, xs, nodes=8, tol=1e-6):
    """tau^1_n - tau^0_n equals -int_0^1 (B + b) G^r_n dr.

    The sign is the one of homotopy_check.  tau^r is analytic in r, so the
    integral takes the Gauss-Legendre rule of `nodes` points on [0, 1]
    (ValueError unless nodes is an integer >= 1), which reaches rounding
    level at a few nodes for a weak coupling only: at perturbation scale
    30 on the RandomGraded 3+2 reference model the residual is 0.034 at 8
    nodes, 1.4e-3 at 16 and 1.7e-7 at 32.  The residual
    |tau^1 - tau^0 + integral| is held to tol.  The nodes and the ends
    r = 0 and r = 1 are one context: the boundary at the nodes and tau at
    the ends are one builder call each."""
    check_integer("degree", n, 0)
    check_integer("nodes", nodes, 1)
    rs, weights = gauss_legendre_01(nodes)
    ctx = PerturbedContext(system, perturbation, np.concatenate([rs, [0.0, 1.0]]))
    values = boundary(transgression_cochain(ctx.at(slice(0, nodes))))(n, xs)
    bot, top = tau_r_eval(ctx.at([nodes, nodes + 1]), n, xs).tolist()
    residual = abs(top - bot + weights @ values)
    return [make_report("transgression.endpoint", "main", nodes, residual, tol)]

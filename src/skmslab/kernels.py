"""Simplex-ordered heat-kernel integrals.

Chain integrals of the form

    int_{Delta_n} Tr(G x_0 e^{-s_1 H} x_1 e^{-(s_2-s_1) H} ... x_n e^{-(1-s_n) H}) d^n s

are read off block row 0 of one block matrix exponential (Van Loan, IEEE
TAC 23, 1978), whose generator has -diag(evals) on every diagonal block,
in the eigenbasis of H, and the insertions on runs of blocks above it.
The row is computed as the action of the exponential on [I, 0, .., 0]
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011); the generator is
never formed.  `chain_integral` passes the bidiagonal run x_1, ..., x_n
and contracts block (0, n) with G x_0.  `alternating_chain_integral`
passes two copies of that run joined by a run carrying q, and reads the
alternating sum over the position of q, the transgression value, off
block (0, 2m+1).

Both take one tuple of matrices, or K tuples of one degree as stacks, one
(K, d, d) array per slot; a stack is one call of the builder, and each
tuple gets the bits it would get alone.  The spectrum may be a stack
too, evals (K, d) and vecs (K, d, d): tuple k is then taken against
spectrum k, which is how one call serves K couplings of a perturbed
Hamiltonian, and one tuple is taken against every spectrum of the stack.
Every exponential is priced at (blocks d)^3, whatever the stack size,
against `chain_budget()`: SKMS_CHAIN_BUDGET, the one setting of the
budget, or 1e8.

An independent route cross-checks it (the tests hold a second one, the
scalar divided-difference oracle for diagonal insertions).
`heat_chain_integrand` with `simplex_quadrature` integrates the trace
pointwise (tensor Gauss-Legendre through the ordered Duffy map, or seeded
Monte Carlo) on cache-sized blocks of points: per block, one real GEMM for
y_n D_n y_0, one complex GEMM per middle insertion, a diagonal-only trace.
A Gauss-Duffy rule depends on its order and degree alone: each is built
once, memoized read-only, and shared by every quadrature of that shape.

The block builder, with c H in place of -H on the diagonal blocks, gives
the terms of every Dyson series of the perturbation module, at real t
and at t = i alike, as block row 0 of one ((k+1)d)-square exponential
for order k, with c = it.

Per Taylor term the builder does one GEMM per block of each run, adds
the products into the term in place, and reads a block's running sum
only when a bound on it could let a slice stop; neither changes a bit
of the result.
"""

import enum
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ChainBudgetExceeded, DimensionMismatch
from .graded import GradingOperator, as_matrix

DEFAULT_CHAIN_BUDGET = 1e8
# bytes per (B, d, d) complex GEMM output of heat_chain_integrand: about
# 5k points at d = 5, so a block's working set stays in a 2 MiB L2 cache
_INTEGRAND_BLOCK_BYTES = 2 ** 21
# theta_m of Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011), Table 3.1
# (m <= 30 from Higham, Functions of Matrices, SIAM 2008, Table A.3): the
# largest 1-norm of A for which m Taylor terms of exp(A) keep the backward
# error below 2^-53
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9}
_TAYLOR_M, _TAYLOR_THETA_M = np.array(sorted(_TAYLOR_THETA.items())).T


# ---------------------------------------------------------------------------
# spectra and chain integrals


class Spectrum:
    """Eigendecomposition of a selfadjoint generator, eigenvalues ascending.

    evals (d,) and vecs (d, d) for one generator, or evals (K, d) and vecs
    (K, d, d) for a stack of K generators, sorted slice by slice.  The
    eigenbasis transforms broadcast: for a stack, slice k of a (K, d, d)
    argument goes to eigenbasis k, and one (d, d) matrix to every one.
    """

    def __init__(self, evals, vecs):
        evals = np.asarray(evals, dtype=float)
        vecs = np.asarray(vecs, dtype=complex)
        if evals.ndim not in (1, 2) or vecs.shape != evals.shape + evals.shape[-1:]:
            raise DimensionMismatch("spectrum shapes inconsistent")
        order = np.argsort(evals, axis=-1, kind="stable")
        if evals.ndim == 1:
            # plain indexing: take_along_axis doubles the cost of a spectrum
            self.evals, self.vecs = evals[order], vecs[:, order]
        else:
            self.evals = np.take_along_axis(evals, order, axis=-1)
            self.vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1)
        self.dim = evals.shape[-1]
        # the adjoint of vecs, formed once for the transforms
        self._vecs_h = self.vecs.conj().swapaxes(-1, -2)
        self.evals.setflags(write=False)
        self.vecs.setflags(write=False)
        self._vecs_h.setflags(write=False)

    def to_eigenbasis(self, m):
        return self._vecs_h @ m @ self.vecs

    def from_eigenbasis(self, m):
        return self.vecs @ m @ self._vecs_h

    def from_diagonal(self, w):
        """from_eigenbasis of the diagonal matrices with entries w (..., d)."""
        return self.from_eigenbasis(w[..., None, :] * np.eye(self.dim))


def chain_budget():
    """Current chain-cost budget; SKMS_CHAIN_BUDGET overrides the default.

    Raises ValueError naming the variable when it is set to NaN or a
    non-number: cost > nan is never true, so NaN would switch the guard off.
    """
    raw = os.environ.get("SKMS_CHAIN_BUDGET")
    if raw is None:
        return DEFAULT_CHAIN_BUDGET
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ValueError("SKMS_CHAIN_BUDGET must be a number, got %r" % (raw,))
    return value


def _heat_chain_blocks(spectrum, edges, what, scale=-1.0):
    """Top block rows of a stack of block heat-chain exponentials.

    edges are runs (row, col, y), row < col, along one block diagonal: y
    is a (K, L, d, d) stack holding the insertion of block (row + i,
    col + i) in y[:, i], in the eigenbasis of H; no two runs share a
    block.  Generator k has these
    insertions and scale * diag(evals) on each diagonal block, with the
    evals of slice k of a stacked spectrum (K, d) or the one spectrum's.
    Block (0, j) of its exponential sums, over the edge paths from block 0
    to block j, the ordered-simplex chains int e^{c s_1 H} y_1
    e^{c (s_2-s_1) H} ... y_i e^{c (1-s_i) H} d^i s with c = scale (Van
    Loan, IEEE TAC 23, 1978).  Heat chains keep scale = -1; the Dyson
    series pass c = it.  Returns the blocks, shape (K, blocks, d, d).

    Block row 0 is the action of the exponential on [I, 0, .., 0]
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011): with mu the mean of
    scale * evals, s substeps each apply e^{mu/s} and the Taylor series of
    exp((generator - mu)/s), (m, s) from _TAYLOR_THETA and the exact
    1-norm.  A substep stops after m + blocks terms, or once it took a
    term per block and the last two terms of every block are below 2^-53
    of that block's sum, so far blocks, orders below the near ones, keep
    their relative accuracy.  (m, s) and the stopping point are per slice
    and stopped slices are masked, so each slice gets the bits it gets
    alone.  The block sums are read only when an upper bound on them
    would let a live slice stop, which gives the same stopping term as
    reading them on every term.  No generator is formed: the workspace is
    a few arrays of the returned shape.

    Each exponential is priced at (blocks d)^3 against chain_budget(),
    whatever K; what names the chain, with its d and degree, in the
    ChainBudgetExceeded message.
    """
    d = spectrum.dim
    k = edges[0][2].shape[0]
    nblocks = max(col + y.shape[1] for _, col, y in edges)
    size = nblocks * d
    budget = chain_budget()
    cost = float(size) ** 3
    if cost > budget:
        raise ChainBudgetExceeded(
            "%s needs a %dx%d block exponential of cost %d^3 = %.3g, over "
            "budget %g" % (what, size, size, size, cost, budget))
    diag = scale * np.broadcast_to(spectrum.evals, (k, d))
    mu = diag.mean(axis=1)
    diag = diag - mu[:, None]
    norms = np.zeros((k, nblocks, d)) + np.abs(diag)[:, None]
    for _, col, y in edges:
        norms[:, col:col + y.shape[1]] += np.abs(y).sum(axis=2)
    # Al-Mohy & Higham: s = ceil(norm / theta_m) with m s least, the
    # smaller m on ties; a zero norm takes s = 1
    steps = np.maximum(1, np.ceil(norms.max(axis=(1, 2))[:, None] / _TAYLOR_THETA_M))
    best = np.argmin(_TAYLOR_M * steps, axis=1)
    m, s = _TAYLOR_M[best].astype(int), steps[np.arange(k), best].astype(int)
    top = np.zeros((k, nblocks, d, d), dtype=complex)
    top[:, 0] = np.eye(d)
    shift = np.exp(mu / s)[:, None, None, None]
    for step in range(int(s.max())):
        live = s > step
        _taylor_step(top, diag, edges, s, m + nblocks, ~live)
        np.multiply(top, shift, out=top, where=live[:, None, None, None])
    return top


def _taylor_step(total, diag, runs, s, caps, stopped):
    # total += sum_{j >= 1} total (A/s)^j / j! in place for the slices not
    # stopped, each up to its stopping term (see _heat_chain_blocks).  For
    # the memory peak, the column factors are complex (float ones make the
    # in-place products buffer) and each term's products go before the
    # next's.  max|total| is read only when an upper bound on it, the last
    # value read plus the sizes of the terms added since, would let a live
    # slice stop; the slack 2^-40 on that bound covers its rounding, so
    # every slice stops on the term the exact value gives
    nblocks, most = total.shape[1], int(caps.max())
    term = total.copy()
    columns = diag.astype(complex)[:, None, None, :]
    # 1/(s j) as (1/s) * (1/j), the bits numpy's complex (1/s) / j gives,
    # applied to the float view of the term
    inverse = (1.0 / s)[:, None, None, None]
    floats = term.view(float)
    # ceiling bounds max|total| per block; none is known before the first read
    masked, last, ceiling = stopped.any(), None, math.inf
    for j in range(1, most + 1):
        prods = [term[:, row:row + y.shape[1]] @ y for row, _, y in runs]
        term *= columns
        for (_, col, y), prod in zip(runs, prods):
            term[:, col:col + y.shape[1]] += prod
        del prods, prod
        floats *= inverse * (1.0 / j)
        if masked:
            np.add(total, term, out=total, where=~stopped[:, None, None, None])
        else:
            total += term
        if j + 1 < nblocks:
            continue
        size = np.abs(term).max(axis=(2, 3))
        if last is not None:
            close = last + size
            ceiling = ceiling + size
            small = False
            maybe = (close <= 2.0 ** -53 * (1.0 + 2.0 ** -40) * ceiling).all(axis=1)
            if (maybe & ~stopped).any():
                ceiling = np.abs(total).max(axis=(2, 3))
                small = (close <= 2.0 ** -53 * ceiling).all(axis=1)
            done = small | (j >= caps)
            if done.any():
                stopped = stopped | done
                if stopped.all():
                    return
                masked = True
        last = size


def _grading_matrix(grading):
    if isinstance(grading, GradingOperator):
        return grading.matrix
    if grading is None:
        return None
    return as_matrix(grading)


def _eigen_insertions(spectrum, stacks, grading):
    # Gamma x_0, x_1, .., x_n in the eigenbasis of H: an (n+1, K, d, d)
    # array from n + 1 (K, d, d) stacks, transformed in one stacked pass
    if not len(stacks):
        raise ValueError("need at least one insertion x_0")
    shape = np.shape(stacks[0])
    if len(shape) != 3 or any(np.shape(s) != shape for s in stacks):
        raise DimensionMismatch(
            "insertions must be (K, d, d) stacks of one shape, got %s"
            % ([np.shape(s) for s in stacks],))
    if shape[1:] != (spectrum.dim, spectrum.dim):
        raise DimensionMismatch(
            "insertion dimension %d does not match spectrum dimension %d"
            % (shape[2], spectrum.dim))
    lead = spectrum.evals.shape[:-1]
    if lead and shape[0] not in (1,) + lead:
        raise DimensionMismatch(
            "%d tuples do not match a stack of %d spectra" % (shape[0], lead[0]))
    mats = np.array(stacks, dtype=complex)
    g = _grading_matrix(grading)
    if g is not None:
        mats[0] = g @ mats[0]
    return spectrum.to_eigenbasis(mats)


def _stacks_of_one(xs):
    return [as_matrix(x)[None] for x in xs]


def _is_stacked(xs):
    # slots given as (K, d, d) stacks rather than as one tuple of matrices
    return len(xs) > 0 and all(np.ndim(x) == 3 for x in xs)


def _as_stacks(xs):
    # (n + 1 (K, d, d) stacks, True when xs was one tuple of matrices)
    if _is_stacked(xs):
        return list(xs), False
    return _stacks_of_one(xs), True


def _values(vals, one, spectrum):
    # the complex value of one tuple against one spectrum, else the array
    return complex(vals[0]) if one and spectrum.evals.ndim == 1 else vals


def _contract(y0, chain):
    # Tr(y0 chain) per slice of the two (K, d, d) stacks
    return (y0 * chain.swapaxes(1, 2)).reshape(len(y0), -1).sum(axis=1)


def chain_integral(spectrum, xs, grading):
    """Ordered-simplex heat chain integral of one tuple or of a stack.

    Parameters
    ----------
    spectrum : Spectrum
        Eigendecomposition of the generator H, or a stack of K of them:
        tuple k of a K-stack is taken against spectrum k, and one tuple
        against each of the K.
    xs : list of matrices, or list of (K, d, d) arrays
        Insertions x_0, ..., x_n (n >= 0) of one tuple; or n + 1 stacks,
        stack i holding slot x_i of K tuples of degree n.
    grading : GradingOperator, matrix, or None
        Gamma in the supertrace; None means plain trace.

    Returns
    -------
    complex, or (K,) complex array for stacks or a stacked spectrum
        int_{Delta_n} Tr(Gamma x_0 e^{-s_1 H} x_1 ... x_n e^{-(1-s_n) H}) d^n s.
        For n = 0 this is Tr(Gamma x_0 e^{-H}).  A stack gives each tuple
        the bits it gets alone; the top rows of its K exponentials are
        one call of the block builder.

    Raises ChainBudgetExceeded when the ((n+1)d)^3 cost of the block
    exponential behind n >= 1 exceeds chain_budget() (SKMS_CHAIN_BUDGET,
    default 1e8); each exponential is priced alone, whatever the number of
    tuples, and n = 0 is never refused.
    """
    stacks, one = _as_stacks(xs)
    mats = _eigen_insertions(spectrum, stacks, grading)
    y0, ys = mats[0], mats[1:].swapaxes(0, 1)
    n = ys.shape[1]
    if n == 0:
        heads = np.diagonal(y0, axis1=1, axis2=2)
        vals = np.sum(heads * np.exp(-spectrum.evals), axis=1)
    else:
        what = "chain with d=%d, n=%d" % (spectrum.dim, n)
        chain = _heat_chain_blocks(spectrum, [(0, 1, ys)], what)[:, n]
        vals = _contract(y0, chain)
    return _values(vals, one, spectrum)


def alternating_chain_integral(spectrum, xs, q, grading):
    """Alternating sum of the chains with q inserted after each slot.

    For one tuple xs = x_0, y_1, ..., y_m (m >= 0) returns the complex

        sum_{k=0..m} (-1)^k int_{Delta_{m+1}} Tr(Gamma x_0 e^{-s_1 H} y_1 ...
            y_k e^{..} q e^{..} y_{k+1} ... y_m e^{-(1-s_{m+1}) H}) d^{m+1} s

    from block row 0 of one exponential of 2(m+1) blocks; for m + 1
    (K, d, d) stacks, the (K,) array of these sums, tuple by tuple, from
    one call of the block builder.  The y_k run on two levels: -y_k on
    block (k-1, k) before q, +y_k on block (m+k, m+1+k) after it, and q on
    block (k, m+1+k) steps from the first level to the second after y_k;
    each of the three is one run of edges.  Every path from block 0
    to block 2m+1 takes exactly one q edge, so block (0, 2m+1) is the whole
    sum, each term signed by the k first-level edges it took: the
    derivative of the chain exponential in the direction of q (Van Loan,
    IEEE TAC 23, 1978; Najfeld & Havel, Adv. Appl. Math. 16, 1995).  Each
    exponential is priced at (2(m+1)d)^3 against chain_budget() as in
    chain_integral.
    """
    stacks, one = _as_stacks(xs)
    mats = _eigen_insertions(spectrum, stacks, grading)
    y0, ys = mats[0], mats[1:].swapaxes(0, 1)
    m = ys.shape[1]
    qe = spectrum.to_eigenbasis(as_matrix(q))
    qe = np.broadcast_to(qe[..., None, :, :], y0.shape[:1] + (m + 1,) + y0.shape[1:])
    edges = [(0, m + 1, qe), (0, 1, -ys), (m + 1, m + 2, ys)]
    what = "alternating chain with d=%d, m=%d" % (spectrum.dim, m)
    chain = _heat_chain_blocks(spectrum, edges, what)[:, 2 * m + 1]
    vals = _contract(y0, chain)
    return _values(vals, one, spectrum)


def heat_chain_integrand(spectrum, xs, grading):
    """Vectorized integrand for the chain trace at given simplex points.

    Returns f mapping an array of ordered points with shape (B, n) to the
    (B,) complex values Tr(Gamma x_0 e^{-s_1 H} x_1 ... x_n e^{-(1-s_n) H}).
    Used by the quadrature oracles that cross-check `chain_integral`.

    Points are taken in blocks whose (B, d, d) complex accumulator fits
    _INTEGRAND_BLOCK_BYTES.  With D_k = diag(e^{-gap_k lambda}) the trace
    is rotated to Tr(Z D_0 y_1 ... y_{n-1} D_{n-1}), Z = y_n D_n y_0: Z is
    one real GEMM with the float view of y_n[i, a] y_0[a, j], each middle
    insertion one complex GEMM, and the trace reads a diagonal only.
    """
    if spectrum.evals.ndim != 1:
        raise DimensionMismatch("the pointwise integrand takes one spectrum, not a stack")
    ys = list(_eigen_insertions(spectrum, _stacks_of_one(xs), grading)[:, 0])
    n = len(ys) - 1
    d = spectrum.dim
    lam = spectrum.evals
    block = max(1, _INTEGRAND_BLOCK_BYTES // (16 * d * d))
    first = (ys[n].T[:, :, None] * ys[0][:, None, :]).reshape(d, -1).view(float)

    def integrand(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != n:
            raise ValueError("expected points of dimension %d" % n)
        if n == 0:
            return np.full(len(pts), np.sum(np.diag(ys[0]) * np.exp(-lam)))
        out = np.empty(pts.shape[0], dtype=complex)
        for lo in range(0, pts.shape[0], block):
            chunk = pts[lo:lo + block]
            b = chunk.shape[0]
            gaps = np.diff(chunk, axis=1, prepend=0.0, append=1.0)
            heat = np.exp(-gaps[:, :, None] * lam)
            acc = (heat[:, n] @ first).view(complex).reshape(b, d, d)
            for k in range(1, n):
                acc *= heat[:, k - 1, None, :]
                acc = (acc.reshape(b * d, d) @ ys[k]).reshape(b, d, d)
            out[lo:lo + b] = np.einsum("bii,bi->b", acc, heat[:, n - 1])
        return out

    return integrand


# ---------------------------------------------------------------------------
# simplex quadrature


# the error estimate compares order k with order max(1, k - 2)
GAUSS_MIN_ORDER = 2


class QuadKind(enum.Enum):
    GaussTensorDuffy = "gauss"
    MonteCarlo = "mc"


@dataclass(frozen=True)
class SimplexQuadratureRule:
    """Cubature rule on the ordered simplex Delta_n.

    kind 'gauss' uses a tensor Gauss-Legendre rule of the given order mapped
    through the ordered Duffy transform; kind 'mc' averages the integrand
    over seeded sorted-uniform samples.  vectorized marks integrands that
    accept a (B, n) batch of points.  A Gauss order below GAUSS_MIN_ORDER
    is refused: its error estimate would compare the rule with itself.
    """

    kind: QuadKind
    order_or_samples: int
    seed: int = 0
    vectorized: bool = False

    def __post_init__(self):
        kind = self.kind
        if isinstance(kind, str):
            kind = QuadKind(kind)
            object.__setattr__(self, "kind", kind)
        if self.order_or_samples < 1:
            raise ValueError("order_or_samples must be positive")
        if kind is QuadKind.GaussTensorDuffy and self.order_or_samples < GAUSS_MIN_ORDER:
            raise ValueError("Gauss order must be at least %d, got %d"
                             % (GAUSS_MIN_ORDER, self.order_or_samples))


def gauss_legendre_01(order):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


@functools.lru_cache(maxsize=32)
def _duffy_points(order, n):
    # the rule depends on (order, n) alone, so it is built once and shared
    # read-only by every quadrature of that shape
    u, w = gauss_legendre_01(order)
    grids = np.meshgrid(*([u] * n), indexing="ij")
    upts = np.stack([g.reshape(-1) for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * n), indexing="ij")
    wts = np.prod(np.stack([g.reshape(-1) for g in wgrids], axis=1), axis=1)
    # ordered map s_k = prod_{j >= k} u_j, jacobian prod_j u_j^{j-1} (1-based)
    s = np.cumprod(upts[:, ::-1], axis=1)[:, ::-1]
    jac = np.prod(upts ** np.arange(n)[None, :], axis=1)
    weights = wts * jac
    s.setflags(write=False)
    weights.setflags(write=False)
    return s, weights


def _eval_integrand(integrand, pts, vectorized):
    if vectorized:
        return np.asarray(integrand(pts), dtype=complex).reshape(-1)
    return np.array([integrand(p) for p in pts], dtype=complex)


def simplex_quadrature(integrand, n, rule):
    """Integrate over the ordered simplex Delta_n.

    Returns (value, error_estimate).  For the Gauss path the estimate is
    the difference against a lower-order rule; for Monte Carlo it is the
    standard error of the mean.  The Gauss path rejects n > 6 (tensor cost).
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        pts = np.zeros((1, 0))
        val = _eval_integrand(integrand, pts, rule.vectorized)[0]
        return complex(val), 0.0

    if rule.kind is QuadKind.GaussTensorDuffy:
        if n > 6:
            raise ValueError("Gauss tensor rule rejected for n > 6 (cost guard)")
        order = int(rule.order_or_samples)
        s, w = _duffy_points(order, n)
        vals = _eval_integrand(integrand, s, rule.vectorized)
        value = complex(np.dot(w, vals))
        low = max(1, order - 2)
        s2, w2 = _duffy_points(low, n)
        vals2 = _eval_integrand(integrand, s2, rule.vectorized)
        value_low = complex(np.dot(w2, vals2))
        return value, abs(value - value_low)

    rng = np.random.default_rng(rule.seed)
    total = int(rule.order_or_samples)
    batch = max(1, min(total, int(2e5)))
    nfact = math.factorial(n)
    count = 0
    acc = 0.0 + 0.0j
    acc_sq = 0.0
    while count < total:
        take = min(batch, total - count)
        pts = np.sort(rng.random((take, n)), axis=1)
        vals = _eval_integrand(integrand, pts, rule.vectorized)
        acc += vals.sum()
        acc_sq += float(np.sum(np.abs(vals) ** 2))
        count += take
    mean = acc / count
    if count > 1:
        var = max(0.0, (acc_sq / count - abs(mean) ** 2) * count / (count - 1))
        stderr = math.sqrt(var / count) / nfact
    else:
        stderr = float("inf")
    return mean / nfact, stderr

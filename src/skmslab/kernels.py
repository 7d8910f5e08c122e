"""Simplex-ordered heat-kernel integrals.

Chain integrals of the form

    int_{Delta_n} Tr(G x_0 e^{-s_1 H} x_1 e^{-(s_2-s_1) H} ... x_n e^{-(1-s_n) H}) d^n s

are read off one matrix exponential: in the eigenbasis of H, block (0, n)
of exp of the block-bidiagonal matrix with -diag(evals) on its n+1
diagonal blocks and x_1, ..., x_n on its superdiagonal is the chain
without x_0 (Van Loan, IEEE TAC 23, 1978).  `chain_integral` contracts
that block with G x_0; the cost is that of one ((n+1)d)-square
exponential.

Two independent routes cross-check it.  `exp_divided_difference` is the
scalar kernel for diagonal insertions,

    E(mu_0, ..., mu_n) = int_{0<=s_1<=...<=s_n<=1}
                         exp(-sum_k (s_{k+1}-s_k) mu_k) d^n s

with s_0 = 0 and s_{n+1} = 1, which by the Hermite-Genocchi formula is
the n-th divided difference of exp at (-mu_0, ..., -mu_n).
`heat_chain_integrand` with `simplex_quadrature` integrates the trace
pointwise (tensor Gauss-Legendre through the ordered Duffy map, or seeded
Monte Carlo).  The integrand takes the points in cache-sized blocks, with
no block-size option, and spends one GEMM per insertion on each block.
"""

import enum
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ChainBudgetExceeded, DimensionMismatch
from .graded import GradingOperator, as_matrix

DEFAULT_CHAIN_BUDGET = 1e8
_CLUSTER_SPREAD = 1e-6
# bytes per (B, d, d) complex accumulator of heat_chain_integrand: about
# 5k points at d = 5, so a block's working set stays in a 2 MiB L2 cache
_INTEGRAND_BLOCK_BYTES = 2 ** 21


def exp_divided_difference(nodes):
    """Divided difference of t -> e^{-t} at the given nodes.

    Parameters
    ----------
    nodes : sequence of float
        Points mu_0, ..., mu_n; repetitions allowed (confluent case).

    Returns
    -------
    float
        The ordered-simplex integral of exp(-sum (s_{k+1}-s_k) mu_k),
        equal to exp[-mu_0, ..., -mu_n].  All nodes equal to mu gives
        e^{-mu}/n!.

    Notes
    -----
    The recursive difference table is catastrophically unstable for
    clustered nodes, so the value is read off as the corner entry of the
    exponential of the bidiagonal matrix carrying the nodes (Opitz form).
    Below a node spread of 1e-6 a centered Taylor expansion in the
    complete homogeneous symmetric polynomials takes over.
    """
    mu = np.asarray(nodes, dtype=float)
    if mu.ndim != 1 or mu.size == 0:
        raise ValueError("nodes must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(mu)):
        raise ValueError("nodes must be finite")
    n = mu.size - 1
    if n == 0:
        return float(np.exp(-mu[0]))
    spread = float(mu.max() - mu.min())
    if spread < _CLUSTER_SPREAD:
        return _edd_clustered(mu)
    return _edd_opitz(mu)


def _edd_opitz(mu):
    # corner entry of expm of the upper-bidiagonal node matrix
    k = mu.size
    z = np.diag(-mu) + np.diag(np.ones(k - 1), 1)
    return float(scipy.linalg.expm(z)[0, k - 1])


def _edd_clustered(mu):
    # e^{-mean} * sum_k (-1)^k h_k(eps) / (n+k)!  with eps centered,
    # h_k the complete homogeneous symmetric polynomials; eps is below
    # 1e-6 so four terms reach machine precision
    n = mu.size - 1
    mean = float(mu.mean())
    eps = mu - mean
    kmax = 4
    # h_k via Newton's identity k h_k = sum_{i=1..k} p_i h_{k-i}
    p = [float(np.sum(eps ** i)) for i in range(kmax + 1)]
    h = [1.0] * (kmax + 1)
    for k in range(1, kmax + 1):
        h[k] = sum(p[i] * h[k - i] for i in range(1, k + 1)) / k
    total = 0.0
    for k in range(kmax + 1):
        total += (-1) ** k * h[k] / math.factorial(n + k)
    return float(math.exp(-mean) * total)


# ---------------------------------------------------------------------------
# spectra and chain integrals


class Spectrum:
    """Eigendecomposition of a selfadjoint generator, eigenvalues ascending."""

    def __init__(self, evals, vecs):
        evals = np.asarray(evals, dtype=float)
        vecs = np.asarray(vecs, dtype=complex)
        if evals.ndim != 1 or vecs.shape != (evals.size, evals.size):
            raise DimensionMismatch("spectrum shapes inconsistent")
        order = np.argsort(evals, kind="stable")
        self.evals = evals[order]
        self.vecs = vecs[:, order]
        self.dim = evals.size
        self.evals.setflags(write=False)
        self.vecs.setflags(write=False)

    def to_eigenbasis(self, m):
        return self.vecs.conj().T @ m @ self.vecs

    def from_eigenbasis(self, m):
        return self.vecs @ m @ self.vecs.conj().T


def _checked_budget(raw, name):
    # NaN would switch the guard off silently: cost > nan is never true
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if math.isnan(value):
        raise ValueError("%s must be a number, got %r" % (name, raw))
    return value


def chain_budget():
    """Current chain-cost budget; SKMS_CHAIN_BUDGET overrides the default.

    Raises ValueError when the variable is set to NaN or a non-number.
    """
    raw = os.environ.get("SKMS_CHAIN_BUDGET")
    if raw is None:
        return DEFAULT_CHAIN_BUDGET
    return _checked_budget(raw, "SKMS_CHAIN_BUDGET")


def _heat_chain_blocks(spectrum, ys):
    """Top block row of the exponential of the block-bidiagonal chain generator.

    ys are the insertions y_1..y_n in the eigenbasis of H.  The generator
    has -diag(evals) in each of its n+1 diagonal blocks and y_k in block
    (k-1, k); block (0, k) of its exponential is the ordered-simplex chain
    int_{Delta_k} e^{-s_1 H} y_1 e^{-(s_2-s_1) H} ... y_k e^{-(1-s_k) H} d^k s
    (Van Loan, IEEE TAC 23, 1978).  Returns these blocks stacked with
    shape (n+1, d, d), k = 0..n.
    """
    d = spectrum.dim
    n = len(ys)
    size = (n + 1) * d
    big = np.zeros((size, size), dtype=complex)
    np.fill_diagonal(big, -np.tile(spectrum.evals, n + 1))
    for k, y in enumerate(ys):
        big[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = y
    top = scipy.linalg.expm(big)[:d]
    return top.reshape(d, n + 1, d).swapaxes(0, 1)


def _grading_matrix(grading):
    if isinstance(grading, GradingOperator):
        return grading.matrix
    if grading is None:
        return None
    return as_matrix(grading)


def chain_integral(spectrum, xs, grading, budget=None):
    """Ordered-simplex heat chain integral.

    Parameters
    ----------
    spectrum : Spectrum
        Eigendecomposition of the generator H.
    xs : list of matrices
        Insertions x_0, ..., x_n (n >= 0).
    grading : GradingOperator, matrix, or None
        Gamma in the supertrace; None means plain trace.
    budget : float, optional
        Cost budget for the ((n+1)d)^3 block exponential behind n >= 1;
        defaults to SKMS_CHAIN_BUDGET or 1e8.  n = 0 is never refused.
        NaN or a non-number, here or in the variable, raises ValueError.

    Returns
    -------
    complex
        int_{Delta_n} Tr(Gamma x_0 e^{-s_1 H} x_1 ... x_n e^{-(1-s_n) H}) d^n s.
        For n = 0 this is Tr(Gamma x_0 e^{-H}).
    """
    mats = [as_matrix(x) for x in xs]
    if not mats:
        raise ValueError("need at least one insertion x_0")
    d = spectrum.dim
    for m_ in mats:
        if m_.shape[0] != d:
            raise DimensionMismatch(
                "insertion dimension %d does not match spectrum dimension %d"
                % (m_.shape[0], d))
    n = len(mats) - 1
    if budget is None:
        budget = chain_budget()
    else:
        budget = _checked_budget(budget, "budget")
    size = (n + 1) * d
    cost = float(size) ** 3
    if n >= 1 and cost > budget:
        raise ChainBudgetExceeded(
            "chain with d=%d, n=%d needs a %dx%d block exponential of cost "
            "((n+1)d)^3 = %.3g, over budget %g" % (d, n, size, size, cost, budget))

    g = _grading_matrix(grading)
    head = mats[0] if g is None else g @ mats[0]
    y0 = spectrum.to_eigenbasis(head)
    if n == 0:
        return complex(np.sum(np.diag(y0) * np.exp(-spectrum.evals)))
    ys = [spectrum.to_eigenbasis(m_) for m_ in mats[1:]]
    chain = _heat_chain_blocks(spectrum, ys)[n]
    return complex(np.sum(y0 * chain.T))


def heat_chain_integrand(spectrum, xs, grading):
    """Vectorized integrand for the chain trace at given simplex points.

    Returns f mapping an array of ordered points with shape (B, n) to the
    (B,) complex values Tr(Gamma x_0 e^{-s_1 H} x_1 ... x_n e^{-(1-s_n) H}).
    Used by the quadrature oracles that cross-check `chain_integral`.

    Points are taken in blocks whose (B, d, d) complex accumulator fits
    _INTEGRAND_BLOCK_BYTES.  In the eigenbasis each heat factor is a
    diagonal, so insertion k is one GEMM acc.reshape(B*d, d) @ y_k followed
    by scaling the columns by e^{-gap_k lambda}; the last insertion and
    the trace fold into one contraction with y_n^T.
    """
    mats = [as_matrix(x) for x in xs]
    n = len(mats) - 1
    d = spectrum.dim
    g = _grading_matrix(grading)
    head = mats[0] if g is None else g @ mats[0]
    ys = [spectrum.to_eigenbasis(head)]
    ys += [spectrum.to_eigenbasis(mats[k]) for k in range(1, n + 1)]
    lam = spectrum.evals
    block = max(1, _INTEGRAND_BLOCK_BYTES // (16 * d * d))

    def integrand(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if n == 0:
            val = np.sum(np.diag(ys[0]) * np.exp(-lam))
            return np.full(pts.shape[0], val, dtype=complex)
        if pts.shape[1] != n:
            raise ValueError("expected points of dimension %d" % n)
        out = np.empty(pts.shape[0], dtype=complex)
        for lo in range(0, pts.shape[0], block):
            chunk = pts[lo:lo + block]
            b = chunk.shape[0]
            gaps = np.diff(chunk, axis=1, prepend=0.0, append=1.0)
            heat = np.exp(-gaps[:, :, None] * lam)
            acc = ys[0] * heat[:, 0, None, :]
            for k in range(1, n):
                acc = (acc.reshape(b * d, d) @ ys[k]).reshape(b, d, d)
                acc *= heat[:, k, None, :]
            out[lo:lo + b] = np.einsum("bij,ji,bi->b", acc, ys[n], heat[:, n])
        return out

    return integrand


# ---------------------------------------------------------------------------
# simplex quadrature


class QuadKind(enum.Enum):
    GaussTensorDuffy = "gauss"
    MonteCarlo = "mc"


@dataclass(frozen=True)
class SimplexQuadratureRule:
    """Cubature rule on the ordered simplex Delta_n.

    kind 'gauss' uses a tensor Gauss-Legendre rule of the given order mapped
    through the ordered Duffy transform; kind 'mc' averages the integrand
    over seeded sorted-uniform samples.  vectorized marks integrands that
    accept a (B, n) batch of points.
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


def gauss_legendre_01(order):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


def _duffy_points(order, n):
    u, w = gauss_legendre_01(order)
    grids = np.meshgrid(*([u] * n), indexing="ij")
    upts = np.stack([g.reshape(-1) for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * n), indexing="ij")
    wts = np.prod(np.stack([g.reshape(-1) for g in wgrids], axis=1), axis=1)
    # ordered map s_k = prod_{j >= k} u_j, jacobian prod_j u_j^{j-1} (1-based)
    s = np.cumprod(upts[:, ::-1], axis=1)[:, ::-1]
    jac = np.prod(upts ** np.arange(n)[None, :], axis=1)
    return s, wts * jac


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


# ---------------------------------------------------------------------------
# nested indefinite integration on Gauss nodes (for iterated Dyson integrals)


def indefinite_integration_matrix(order):
    """Spectral integration on Gauss-Legendre nodes of [0, 1].

    Returns (nodes, weights, Q) where (Q @ f)(i) approximates the integral
    of f from 0 to node i, exactly for polynomials of degree < order.
    """
    u, w = gauss_legendre_01(order)
    # Vandermonde in shifted Legendre polynomials
    v = np.empty((order, order))
    for k in range(order):
        coeff = np.zeros(k + 1)
        coeff[k] = 1.0
        v[:, k] = np.polynomial.legendre.legval(2 * u - 1, coeff)
    # antiderivative of shifted P_k vanishing at 0
    a = np.empty((order, order))
    a[:, 0] = u
    for k in range(1, order):
        up = np.zeros(k + 2)
        up[k + 1] = 1.0
        down = np.zeros(k)
        down[k - 1] = 1.0
        a[:, k] = (np.polynomial.legendre.legval(2 * u - 1, up)
                   - np.polynomial.legendre.legval(2 * u - 1, down)) / (2 * (2 * k + 1))
    q = a @ np.linalg.inv(v)
    return u, w, q

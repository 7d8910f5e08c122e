"""Scalar oracle for chain integrals with diagonal insertions.

    E(mu_0, ..., mu_n) = int_{0<=s_1<=...<=s_n<=1}
                         exp(-sum_k (s_{k+1}-s_k) mu_k) d^n s

with s_0 = 0 and s_{n+1} = 1, which by the Hermite-Genocchi formula is
the n-th divided difference of exp at (-mu_0, ..., -mu_n).  The tests
expand chain integrals over eigenbasis index chains weighted by it, a
route independent of the block-exponential builder of skmslab.kernels.
"""

import math

import numpy as np
import scipy.linalg

_CLUSTER_SPREAD = 1e-6


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

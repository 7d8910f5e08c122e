"""Simplex-ordered heat-kernel integrals.

Chain integrals of the form

    int_{Delta_n} Tr(G x_0 e^{-s_1 H} x_1 e^{-(s_2-s_1) H} ... x_n e^{-(1-s_n) H}) d^n s

are read off block row 0 of one block matrix exponential (Van Loan, IEEE
TAC 23, 1978), whose generator has -diag(evals) on every diagonal block,
in the eigenbasis of H, and the insertions on runs of blocks above it.
The row is computed as the action of the exponential on [I, 0, .., 0]
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011); the generator is
never formed.  The blocks sit at positions along one or two levels.
`chain_integral` passes the bidiagonal run x_1, ..., x_n on one level
and contracts the last block, (0, n), with G x_0; block (0, k) is the
chain of the prefix (x_0, .., x_k), and `_chain_prefixes` contracts
every block of the row, for the entireness rows.  Given an insertion
q, it passes the same run on two levels, joined by level edges carrying
q, and reads the alternating sum over the position of q, the
transgression value, off the last block of the second level, (0, 2n+1).
The first level holds its blocks signed (-1)^k, so one GEMM multiplies
both levels of a position by the same x_k, and the sign rides on the q
edges.

Tuples come in one layout, a pool: an (M, d, d) array of matrices and
an (n + 1, T) table of pool indices, slot i of tuple t being pool entry
index[i, t]; without a table the pool is the one tuple (xs[0], ..,
xs[M-1]).  A list of tables, of any degrees, reads one pool: each
degree is one call of the builder, and each tuple gets the bits it
would get alone.  Gamma, the eigenbasis transform and the real blocks
run once per distinct entry over all the tables, and the builder's
insertions are gathered by the tables.  The spectrum may be a stack
too, evals (K, d) and vecs (K, d, d): every tuple is then taken against
every spectrum, with pool k for spectrum k when the pool is (K, M, d,
d); that is how one call serves K couplings of a perturbed Hamiltonian.  Stacks of tuples are
the cochain module's layout, which it turns into a pool.
Every exponential is priced at s (blocks d)^3, s its substeps, whatever
the stack size, against `chain_budget()`: SKMS_CHAIN_BUDGET, the one
setting of the budget, or 1e8.

An independent route cross-checks it (the tests hold a second one, the
scalar divided-difference oracle for diagonal insertions).
`heat_chain_integrand` with `simplex_quadrature` integrates the trace
pointwise (tensor Gauss-Legendre through the ordered Duffy map, or seeded
Monte Carlo) on blocks of points, with the point index last and real
arithmetic.  Each route's block is as many points as fit the bytes it
holds per point in _INTEGRAND_BLOCK_BYTES, and a block's heat factors
are one outer product of -lambda with its gaps, exponentiated in place.
Up to degree 2 a block is one GEMM of the trace's fixed ring tensor,
(2d, d^2) at n = 2, on the Kronecker product D_2 (x) D_0 of two heat
factors; from degree 3 on it is one GEMM for y_n D_n y_0, one per middle
insertion, and d small (2, 2d)(2d, B) products that form only the
diagonal the trace reads.
A Gauss-Duffy rule depends on its order and degree alone: each is built
once, memoized read-only, and shared by every quadrature of that shape;
rule.price refuses one over the chain budget before it is built.
Monte Carlo orders each (B, n) batch of uniform draws without a per-row
sort: the draw is copied once to (n, B), and Batcher's odd-even merge
network (AFIPS SJCC 32, 1968) sorts its n rows by whole-row np.minimum
and np.maximum exchanges.  min and max only move values, so the points
have the bits np.sort gives them, and they reach the integrand with the
point index last in memory.

The block builder, with c H in place of -H on the diagonal blocks, gives
the terms of every Dyson series of the perturbation module, at real t
and at t = i alike, as block row 0 of one ((k+1)d)-square exponential
for order k, with c = it.

The builder's state is position-major, (positions, levels, K, d, d).
Per Taylor term an edge takes one real (d x 2d) by (2d x 2d) GEMM per
(d, d) block it reads, on the float view of the term: y enters as the
real block R(y), (A @ y).view(float) = A.view(float) @ R(y), formed once
per distinct matrix, the flops and error bound of the complex product at
a fraction of numpy's per-matrix cost.  Besides them a term makes four
passes over blocks contiguous over the K slices, per-slice factors
broadcast: the diagonal factors, one (d, d) block per slice; the add of
the products; the 1/(s j) scale, one float for the stack when every
slice has the same s; and the add into the sums.
The first substep starts from [I, 0, .., 0], so a position is zero
until a run reaches it, and no GEMM reads it before.  Sizes are read
only where a slice can stop: none before a floor that block 0 sets,
then the last block's, and every block's only where the last one lets
a slice stop, which changes no bit of the result.
"""

import functools
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ChainBudgetExceeded, DimensionMismatch, check_integer
from .graded import GradingOperator, as_matrix

DEFAULT_CHAIN_BUDGET = 1e8
# bytes per block that heat_chain_integrand gives the largest array of
# its route, read by _integrand_block: at d = 5 that is 6553 points at
# n = 1, 2621 at n = 2 and 1310 from n = 3 on, with the heat factors and
# the GEMM outputs within a 2 MiB L2 cache.  Per 1e5 points, 1 BLAS
# thread, medians of 9 with 2^17..2^21 interleaved, two runs: at d = 5,
# 2^19 read 3.2 and 4.6 ms at n = 1 (2^20: 4.0, 6.3) and 14.7 and 15.2
# at n = 3 (2^18: 17.4, 17.5); at n = 2, 9.0 and 7.3 against 7.7 and 7.3
# at 2^18, within the host's noise.  At d = 8 it was no slower at n = 1
# and 2; at n = 3, 2^18 read 43.5 and 45.4 against 47.6 and 49.5
_INTEGRAND_BLOCK_BYTES = 2 ** 19
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


def _refuse_over_budget(cost, what, *args):
    """Raise ChainBudgetExceeded when cost is over chain_budget().

    The message names the work, what % args, then its cost and the budget.
    The chain builder, the Gauss rule and the coupling grid price their
    work here, before it starts.
    """
    budget = chain_budget()
    if cost > budget:
        raise ChainBudgetExceeded("%s = %.3g, over budget %g" % (what % args, cost, budget))


def _heat_chain_blocks(spectrum, edges, what, scale=-1.0):
    """Top block rows of a stack of block heat-chain exponentials.

    The blocks sit at positions 0, 1, .. on one or two levels.  edges,
    each made by _edge, are runs (row, col, blocks, sums), row < col,
    along one diagonal of positions: the insertion y[:, i] from position
    row + i to position col + i, on every level, in the eigenbasis of H,
    enters as its real block R(y), blocks[:, i] of a (K, L, 2d, 2d)
    stack, and the column sums of |y|, sums[:, i] of a (K, L, d) stack;
    and level edges (p, p, blocks, sums), which insert q[:, i] from level
    0 to level 1 at position p + i.  A level edge makes two levels, else
    there is one; no two edges share a block.  Generator k has these
    insertions and scale * diag(evals) on each diagonal block, with the
    evals of slice k of a stacked spectrum (K, d) or the one spectrum's.  Block
    (0, j) of its exponential sums, over the edge paths from block 0 to
    block j, the ordered-simplex chains int e^{c s_1 H} y_1
    e^{c (s_2-s_1) H} ... y_i e^{c (1-s_i) H} d^i s with c = scale (Van
    Loan, IEEE TAC 23, 1978).  Heat chains keep scale = -1; the Dyson
    series pass c = it.  Returns the blocks, a (K, blocks, d, d) view of
    the (positions, levels, K, d, d) state, block position * levels + level.

    Block row 0 is the action of the exponential on [I, 0, .., 0]
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011): with mu the mean of
    scale * evals, s substeps each apply e^{mu/s} and the Taylor series of
    exp((generator - mu)/s), (m, s) from _TAYLOR_THETA and the exact
    1-norm.  A substep stops after m + blocks terms, or once it took a
    term per block and the last two terms of every block are below 2^-53
    of that block's sum, so far blocks, orders below the near ones, keep
    their relative accuracy.  (m, s) and the stopping point are per slice
    and stopped slices are masked, so each slice gets the bits it gets
    alone.  Sizes are read only where a slice can stop (see
    _taylor_step), on the same term as with every size read on every
    term.  The first substep starts from [I, 0, .., 0] and multiplies no
    position that no run has reached yet, which is zero.  Every product
    is one float64 GEMM of the term's float view by R(y).  No generator
    is formed: the workspace is a few arrays of the state's shape.

    Each exponential is priced at s (blocks d)^3 against chain_budget(),
    with s the most substeps of any slice, whatever K, before its first
    term; what names the chain, with its d and degree, in the
    ChainBudgetExceeded message, which names s when it is above 1.
    """
    d = spectrum.dim
    k = edges[0][3].shape[0]
    positions = max(col + sums.shape[1] for _, col, _, sums in edges)
    levels = 2 if any(edge[0] == edge[1] for edge in edges) else 1
    nblocks = positions * levels
    size = nblocks * d
    diag = scale * np.broadcast_to(spectrum.evals, (k, d))
    mu = diag.mean(axis=1)
    diag = diag - mu[:, None]
    norms = np.zeros((k, positions, levels, d)) + np.abs(diag)[:, None, None]
    for row, col, _, sums in edges:
        if row == col:
            norms[:, col:col + sums.shape[1], 1] += sums
        else:
            norms[:, col:col + sums.shape[1]] += sums[:, :, None]
    # Al-Mohy & Higham: s = ceil(norm / theta_m) with m s least, the
    # smaller m on ties; a zero norm takes s = 1
    steps = np.maximum(1, np.ceil(norms.reshape(k, -1).max(axis=1)[:, None]
                                  / _TAYLOR_THETA_M))
    best = np.argmin(_TAYLOR_M * steps, axis=1)
    s = steps[np.arange(k), best]
    most = float(s.max())
    _refuse_over_budget(most * float(size) ** 3,
                        "%s needs a %dx%d block exponential of cost %s%d^3", what, size, size,
                        "" if most == 1.0 else "%.0f substeps * " % most, size)
    m, s = _TAYLOR_M[best].astype(int), s.astype(int)
    top = np.zeros((positions, levels, k, d, d), dtype=complex)
    top[0, 0] = np.eye(d)
    shift = np.exp(mu / s)[:, None, None]
    runs = [(row, col, y.swapaxes(0, 1)) for row, col, y, _ in edges]
    for step in range(int(most)):
        live = s > step
        _taylor_step(top, diag, runs, s, m + nblocks, ~live, step == 0)
        np.multiply(top, shift, out=top, where=live[:, None, None])
    return top.reshape(nblocks, k, d, d).swapaxes(0, 1)


def _taylor_step(total, diag, runs, s, caps, stopped, fresh):
    # total += sum_{j >= 1} total (A/s)^j / j! in place for the slices not
    # stopped, each up to its stopping term (see _heat_chain_blocks); total
    # is the (positions, levels, K, d, d) state and a run's R(y) is (count,
    # K, 2d, 2d).  A product, one real (d x 2d) (2d x 2d) GEMM per block,
    # takes the float view of a run's positions, every level, or of a level
    # edge's level 0, by R(y), and is added to the float view of its
    # destination (see _edge), contiguous over (K, d, 2d).  A fresh substep
    # starts from [I, 0, .., 0]: a position is zero until a run reaches it,
    # so a term multiplies and adds only the products of the positions
    # reached so far.  The other passes run over the whole state, per-slice
    # factors broadcast as (K, 1, 1): over the reached positions alone they
    # are no faster.  For the memory peak, the column factors are complex
    # (float ones make the in-place products buffer) and each term's
    # products go before the next's.  Slice k stops on the first term j >=
    # blocks on which every block has |t_{j-1}| + |t_j| <= 2^-53 max|total|,
    # |.| the block's max modulus, or on its cap.  Sizes are read only where
    # that test can pass: none before _stop_floor's term, since a stop on
    # term j + 1 needs block 0's |t_j| near 2^-53 of its sum; from there the
    # last block's |t_j| on every term, with an upper bound on its
    # max|total| (the last value read plus the sizes added since; slack
    # 2^-40 covers its rounding); every block's |t_j| only when a live slice
    # has the last block's within 2^-53 of that bound, which a stop on term
    # j + 1 needs; and every block's max|total|, for the exact test, only
    # when a live slice passes the test on the last block.  Each read being
    # a necessary condition, every slice stops on the term it stops on with
    # every size read
    positions, levels, k, d = total.shape[:4]
    term = total.copy()
    nblocks, most = positions * levels, int(caps.max())
    flat = term.view(float)
    # (row, col, source, destination, R(y)), float views of the term
    # formed once; a run's R(y) broadcast over the levels
    plan = [(row, col, flat[row:row + len(y), 0], flat[col:col + len(y), 1], y)
            if row == col else
            (row, col, flat[row:row + len(y)], flat[col:col + len(y)], y[:, None])
            for row, col, y in runs]
    work = [view[2:] for view in plan]
    # one (d, d) block of column factors per slice: the multiply runs over
    # d^2 contiguous elements
    columns = np.repeat(diag.astype(complex)[:, None, :], d, axis=1)
    # 1/(s j) as (1/s) * (1/j), the bits numpy's complex (1/s) / j gives,
    # applied to the float view of the term; 1/s is one float when every
    # slice has the same s, so the scale is then a scalar multiply
    inverse = 1.0 / s
    inverse = float(inverse[0]) if (s == s[0]).all() else inverse[:, None, None]
    reach, cut = 1, fresh
    live = ~stopped
    masked = not live.all()
    # the first term whose sizes are read
    first = max(nblocks - 1, int(_stop_floor(total[0, 0], diag, s, caps)[live].min()))
    # full: every block's |t_{j-1}|, when it was read; bound: the upper
    # bound on the last block's max|total|
    full = bound = None
    for j in range(1, most + 1):
        if cut:
            work, reach, cut = _reached(plan, reach)
        prods = [np.matmul(source, y) for source, _, y in work]
        term *= columns
        for (_, dest, _), prod in zip(work, prods):
            dest += prod
        prods = prod = None
        flat *= inverse * (1.0 / j)
        if masked:
            np.add(total, term, out=total, where=live[:, None, None])
        else:
            total += term
        if j < first:
            continue
        edge = np.abs(term[-1, -1]).max(axis=(1, 2))
        bound = np.abs(total[-1, -1]).max(axis=(1, 2)) if bound is None else bound + edge
        limit = 2.0 ** -53 * (1.0 + 2.0 ** -40) * bound
        near = live & (edge <= limit)
        done, size = j >= caps, None
        if near.any():
            size = _block_sizes(term)
            if full is not None and (near & (full[-1] + edge <= limit)).any():
                ceiling = _block_sizes(total)
                done |= (full + size <= 2.0 ** -53 * ceiling).all(axis=0)
                bound = ceiling[-1]
        full = size
        if (done & live).any():
            live &= ~done
            if not live.any():
                return
            masked = True


def _block_sizes(state):
    # max modulus of each (d, d) block of the state, as (blocks, K)
    return np.abs(state).max(axis=(3, 4)).reshape(-1, state.shape[2])


def _stop_floor(head, diag, s, caps):
    # per slice, the first term j whose block 0 can be within 2^-53 of its
    # sum, which the stop test of _taylor_step needs on terms j - 1 and j,
    # or the cap if that comes first.  Block 0 takes no edge, so its
    # term j is head (diag/s)^j / j!, column by column: with h the column
    # maxima of |head| and r = |diag|/s, its max|total| stays below
    # max_l h_l e^{r_l}, and its max|term j| is at least h_l r_l^j / j! at
    # the l of largest r, taken for every j at once.  2^-18 covers the
    # rounding of both bounds; below h_l = 2^-900 the terms could leave the
    # normal range, so such a column bounds nothing
    h = np.abs(head).max(axis=1)
    r = np.abs(diag) / s[:, None]
    top = (np.arange(len(r)), r.argmax(axis=1))
    low = np.where(h[top] >= 2.0 ** -900, h[top], 0.0)[:, None] * np.cumprod(
        r[top][:, None] / np.arange(1, int(caps.max()) + 1), axis=1)
    may = low <= 2.0 ** -53 * (1.0 + 2.0 ** -18) * (h * np.exp(r)).max(axis=1)[:, None]
    may[top[0], caps - 1] = True
    return may.argmax(axis=1) + 1


def _reached(plan, reach):
    # the (source, destination, R(y)) views of plan cut to the source
    # positions below reach, the only nonzero ones; the positions their
    # products reach; and whether any view was cut
    work, ahead, cut = [], reach, False
    for row, col, source, dest, y in plan:
        count = min(len(y), reach - row)
        if count > 0:
            work.append((source[:count], dest[:count], y[:count]))
            ahead = max(ahead, col + count)
        cut = cut or count < len(y)
    return work, ahead, cut


def _grading_matrix(grading):
    if isinstance(grading, GradingOperator):
        return grading.matrix
    if grading is None:
        return None
    return as_matrix(grading)


def _split_table(tables, size):
    """(entries, heads, tables) of (n + 1, T) tables into a pool of size.

    entries lists, each once and in pool order, the entries slot 0 of any
    table reads, heads of them, then the entries slots >= 1 read; each
    table comes back as an index into entries.  Marks, not a sort: one
    pass over each table.
    """
    marks = np.zeros(2 * size, dtype=np.intp)
    rows = []
    for index in tables:
        row = index.copy()
        row[1:] += size
        marks[row] = 1
        rows.append(row)
    where = marks.cumsum()
    entries = marks.nonzero()[0]
    heads = int(where[size - 1])
    entries[heads:] -= size
    return entries, heads, [where[row] - 1 for row in rows]


def _eigen_pool(spectrum, pool, tables, grading, what):
    # (mats, heads, tables): Gamma times the entries slot 0 of any table
    # reads, heads of them, then the entries slots >= 1 read, in the
    # eigenbasis of H, as a (K, M, d, d) array with K = 1 for one spectrum,
    # each entry transformed once per spectrum; and the tables as indices
    # into it, [None] being the one tuple of the whole pool.  A NaN or an
    # infinity is refused before the transform, which would warn on it, and
    # before the price, which a NaN norm would pass; what, formatted with d
    # and the degree of the first table that reads one, names the chain
    if tables[0] is None and not isinstance(pool, np.ndarray):
        shapes = [np.shape(x) for x in pool]
        if any(len(shape) != 2 or shape != shapes[0] for shape in shapes):
            raise DimensionMismatch("one tuple takes (d, d) matrices of one shape, got %s; "
                                    "stacks of tuples take a pool and a table" % (shapes,))
    pool = np.asarray(pool, dtype=complex)
    lead = spectrum.evals.shape[:-1]
    if (pool.ndim not in (3, 4) or pool.shape[-2:] != (spectrum.dim,) * 2
            or pool.ndim == 4 and pool.shape[:1] != lead):
        raise DimensionMismatch("insertions of shape %s do not match %s of dimension %d"
                                % (pool.shape, "%d spectra" % lead[0] if lead else "a spectrum",
                                   spectrum.dim))
    size = pool.shape[-3]
    if tables[0] is None:
        tables = [np.arange(size)[:, None]]
    tables = [np.asarray(index) for index in tables]
    for index in tables:
        if (index.ndim != 2 or not index.size or index.dtype.kind not in "iu"
                or index.min() < 0 or index.max() >= size):
            raise DimensionMismatch("index must be an (n + 1, T) integer table into %d "
                                    "insertions, got %s of %s" % (size, index.shape,
                                                                  index.dtype))
    if not np.isfinite(pool).all():
        bad = ~np.isfinite(pool).reshape(-1, size, spectrum.dim ** 2).all(axis=(0, 2))
        n = next((len(index) - 1 for index in tables if bad[index].any()), len(tables[0]) - 1)
        raise ValueError("%s has an insertion that is not finite" % (what % (spectrum.dim, n)))
    entries, heads, tables = _split_table(tables, size)
    mats = pool[..., entries, :, :]
    g = _grading_matrix(grading)
    if g is not None:
        mats[..., :heads, :, :] = g @ mats[..., :heads, :, :]
    if not lead:
        return spectrum.to_eigenbasis(mats)[None], heads, tables
    # entry-major, (M, 1, d, d) or (M, K, d, d), meets the (K, d, d) bases
    mats = mats[:, None] if mats.ndim == 3 else mats.swapaxes(0, 1)
    return spectrum.to_eigenbasis(mats).swapaxes(0, 1), heads, tables


def _first_tuple(vals):
    # the first tuple's value of (T,) or (K, T) values: a complex, or (K,)
    return complex(vals[0]) if vals.ndim == 1 else vals[:, 0]


def _contract(y0, chain):
    # Tr(y0 c) per slice of the (K, d, d) stack y0 and of chain, a (K, d, d)
    # stack, or P of them, (P, K, d, d), read as (P, K) values
    return (y0 * chain.swapaxes(-1, -2)).reshape(chain.shape[:-2] + (-1,)).sum(axis=-1)


def _real_blocks(pool):
    # (R(y), the column sums of |y|) of each matrix y of a (.., d, d) stack
    # of complex matrices, taken flat: (N, 2d, 2d) and (N, d).  R(y) =
    # [[Re y, Im y], [-Im y, Re y]], rows (l, Re/Im) by columns (j, Re/Im),
    # so (A @ y).view(float) is A.view(float) @ R(y), one float64 GEMM, and
    # R(-y) = -R(y) exactly
    d = pool.shape[-1]
    real = np.empty(pool.shape[:-1] + (2, d, 2))
    real[..., 0, :, 0] = real[..., 1, :, 1] = pool.real
    real[..., 0, :, 1], real[..., 1, :, 0] = pool.imag, -pool.imag
    return real.reshape(-1, 2 * d, 2 * d), np.abs(pool).sum(axis=-2).reshape(-1, d)


def _edge(row, col, pool, index):
    # the builder's edge (row, col, blocks, sums) for the insertions y =
    # pool[index]: pool is a (.., d, d) stack of complex matrices, taken
    # flat, and index a (K, count) table into it.  R(y) and the column
    # sums of |y| are formed once per matrix, then gathered: blocks (K,
    # count, 2d, 2d), sums (K, count, d).  No complex stack is gathered
    real, sums = _real_blocks(pool)
    return row, col, real[index], sums[index]


def _chain_edges(spectrum, pool, tables, grading, q):
    # one builder call per distinct degree of the tables, in the order the
    # degrees first appear: (the (i, start, stop) of each table i of the
    # degree in the call's columns, Gamma x_0 in the eigenbasis, the
    # builder's edges, the chain's name, the spectrum the builder reads).
    # The tables of a degree are one table, one after the other; slice
    # k T + t of a call is its tuple t at spectrum k.  One eigen pool and
    # one realification serve every call; no edges at n = 0 without q
    what = "chain with d=%d, n=%d" if q is None else "alternating chain with d=%d, m=%d"
    mats, first, tables = _eigen_pool(spectrum, pool, tables, grading, what)
    k, size, d = len(mats), mats.shape[1] - first, spectrum.dim
    degrees = {}
    for i, table in enumerate(tables):
        degrees.setdefault(len(table), []).append(i)
    # the entries slots >= 1 read are read only through their real blocks,
    # and only by edges; the complex pool goes before the builder runs, for
    # the memory peak
    heads = mats[:, :first].copy()
    if q is not None or max(degrees) > 1:
        blocks, sums = _real_blocks(mats[:, first:])
    del mats
    # spectrum j's entries start at block j size of the flat blocks
    starts = np.arange(k)[:, None, None] * size - first
    if q is not None:
        # q and -q of each spectrum, at 2j and 2j + 1, alternating along the run
        qe = spectrum.to_eigenbasis(as_matrix(q))
        qblocks, qsums = _real_blocks(np.stack([qe, -qe], axis=-3))
    for members in degrees.values():
        table = (tables[members[0]] if len(members) == 1
                 else np.concatenate([tables[i] for i in members], axis=1))
        n, count = len(table) - 1, table.shape[1]
        spans, stop = [], 0
        for i in members:
            spans.append((i, stop, stop + tables[i].shape[1]))
            stop += tables[i].shape[1]
        y0 = heads[:, table[0]].reshape(k * count, d, d)
        rows = spectrum
        if k > 1 and count > 1:
            # the builder reads dim and evals: spectrum k once per tuple
            rows = SimpleNamespace(dim=d, evals=np.repeat(spectrum.evals, count, axis=0))
        edges = []
        if n or q is not None:
            run = (starts + table[1:].T).reshape(k * count, n)
            edges.append((0, 1, blocks[run], sums[run]))
        if q is not None:
            signs = np.arange(n + 1) % 2 + 2 * np.arange(k)[:, None, None]
            signs = np.broadcast_to(signs, (k, count, n + 1)).reshape(k * count, n + 1)
            # the q edges go before the run, so the column sums keep their order
            edges.insert(0, (0, 0, qblocks[signs], qsums[signs]))
        yield spans, y0, edges, what % (d, n), rows


def _heat_trace(spectrum, y0):
    # chain_integral at n = 0: Tr(y0 e^{-H}) per tuple, (K, T) for K spectra
    heat = np.exp(-spectrum.evals).reshape(-1, 1, spectrum.dim)
    heads = np.diagonal(y0, axis1=1, axis2=2).reshape(len(heat), -1, spectrum.dim)
    return np.sum(heads * heat, axis=-1)


def _chain_prefixes(spectrum, pool, grading, index):
    # chain_integral of every prefix (x_0, .., x_k) of the tuples of an
    # (n + 1, T) table as (T, n + 1) values from one block row, or (K T,
    # n + 1) for K spectra; (m, s) are chosen from every position, so a
    # prefix may move at rounding level against its own chain_integral.
    # At n = 0 the one column is chain_integral's contraction
    ((_, y0, edges, what, rows),) = _chain_edges(spectrum, pool, [index], grading, None)
    if not edges:
        return _heat_trace(spectrum, y0).reshape(-1, 1)
    return _contract(y0, _heat_chain_blocks(rows, edges, what).swapaxes(0, 1)).T


def chain_integral(spectrum, xs, grading, q=None, index=None):
    """Ordered-simplex heat chain integral of the tuples of a pool.

    Parameters
    ----------
    spectrum : Spectrum
        Eigendecomposition of the generator H, or a stack of K of them.
    xs : (M, d, d) array or list of M matrices, or (K, M, d, d) array
        The pool; (K, M, d, d) holds pool k for spectrum k of a K-stack.
    grading : GradingOperator, matrix, or None
        Gamma in the supertrace; None means plain trace.
    q : matrix or None
        An insertion placed after each slot in turn, see below.
    index : (n + 1, T) integer array, list of them, or None
        Slot i of tuple t is the pool entry xs[..., index[i, t], :, :].
        A list holds tables of any degrees into the one pool, a single
        table being a list of one.  None is the one tuple (xs[0], ..,
        xs[M-1]) of degree M - 1.

    Returns
    -------
    (T,) complex values, or (K, T) for a stack of K spectra, every tuple at
    every spectrum; a list of them, one per table, for a list of tables;
    without index, the one tuple's complex, or (K,)
        int_{Delta_n} Tr(Gamma x_0 e^{-s_1 H} x_1 ... x_n e^{-(1-s_n) H}) d^n s.
        For n = 0 without q this is Tr(Gamma x_0 e^{-H}).
        All the tables share one eigen pool: Gamma is applied once to each
        entry that slot 0 of any table reads, and each entry, and q, goes
        to each spectrum's eigenbasis once and to its real blocks once;
        the block builder's insertions are gathered by the tables.  The
        tables of one degree are one call of the block builder, one after
        the other in its columns, so there is one call per distinct
        degree, and each tuple gets the bits it gets alone.

    With q, the value is the alternating sum over the position of q,

        sum_{k=0..n} (-1)^k int_{Delta_{n+1}} Tr(Gamma x_0 e^{-s_1 H} x_1 ...
            x_k e^{..} q e^{..} x_{k+1} ... x_n e^{-(1-s_{n+1}) H}) d^{n+1} s,

    the derivative of the chain exponential in the direction of q (Najfeld
    & Havel, Adv. Appl. Math. 16, 1995).  The run sits on two levels of
    positions 0..n, joined by level edges through q at every position;
    every path to the last block, position n of level 1, takes one q edge.
    Level 0 is stored sign-twisted, W_k = (-1)^k U_k for the blocks U_k
    that edges -x_k give, so one GEMM per position serves both levels and
    position k steps up through (-1)^k q; negation is exact, so no block
    changes a bit.

    Raises ChainBudgetExceeded when the cost of the block exponential,
    ((n+1)d)^3, or (2(n+1)d)^3 with q, exceeds chain_budget()
    (SKMS_CHAIN_BUDGET, default 1e8); each exponential is priced alone,
    whatever the number of tuples, and n = 0 without q is never refused.
    Raises ValueError, naming the chain, when an insertion holds a NaN or
    an infinity, before any arithmetic on it; DimensionMismatch for a pool
    or table that do not fit, an empty table among them, and for a list
    that is not one tuple of matrices, as n + 1 stacks of tuples are.
    """
    many = isinstance(index, list) and bool(index) and all(np.ndim(t) == 2 for t in index)
    out = [None] * (len(index) if many else 1)
    for spans, y0, edges, what, rows in _chain_edges(spectrum, xs, index if many else [index],
                                                     grading, q):
        if edges:
            vals = _contract(y0, _heat_chain_blocks(rows, edges, what)[:, -1])
        else:
            vals = _heat_trace(spectrum, y0)
        vals = vals.reshape(spectrum.evals.shape[:-1] + (-1,))
        for i, start, stop in spans:
            out[i] = vals[..., start:stop]
        # for the memory peak, this degree's edges go before the next's
        y0 = edges = None
    if many:
        return out
    return out[0] if index is not None else _first_tuple(out[0])


def _integrand_block(n, d):
    # points per block of heat_chain_integrand (n = 0 takes none): the bytes
    # of the largest array its route holds per point, the real (2d, B)
    # product at n = 1, the (d^2, B) Kronecker columns at n = 2 and the
    # real (2d^2, B) state from n = 3 on
    per_point = 16 * d if n == 1 else 8 * d * d if n == 2 else 16 * d * d
    return max(1, _INTEGRAND_BLOCK_BYTES // per_point)


def heat_chain_integrand(spectrum, xs, grading):
    """Vectorized integrand for the chain trace at given simplex points.

    Returns f mapping an array of ordered points with shape (B, n) to the
    (B,) complex values Tr(Gamma x_0 e^{-s_1 H} x_1 ... x_n e^{-(1-s_n) H}).
    Used by the quadrature oracles that cross-check `chain_integral`.

    Points are taken in blocks of B, the point index on the last axis, B
    read from _integrand_block(n, d).  With D_k = diag(e^{-gap_k lambda}),
    the heat factors of a block are one (d, n+1, B) array, the outer
    product of -lambda with the gaps exponentiated in place in a buffer
    the call allocates once.  The trace is Tr(Z D_0 y_1 ... y_{n-1}
    D_{n-1}), Z = y_n D_n y_0, and n alone picks the route.  Up to n = 2
    the ring tensor, ring[a, b, c] = y_1[c, a] y_2[a, b] y_0[b, c] or
    ring[a, b] = y_0[b, a] y_1[a, b] (the terms of diag Z), is formed once
    in real (2d, d^n) form, and a block is one GEMM (2d, d^n)(d^n, B) on
    D_n or on the Kronecker product D_2 (x) D_0: 2d^3 multiply-adds per
    point at n = 2, against 6d^3 for Z and a closing GEMM.  From n = 3 on
    the real (2d^2, B) state holds Re and Im of acc[i, j] on rows
    (c, j, i) and starts as Z, one GEMM (2d^2, d)(d, B); each middle
    insertion y_k scales the rows by D_{k-1} and is one GEMM
    (2d, 2d)(2d, dB) with [[Re y_k^T, -Im y_k^T], [Im y_k^T, Re y_k^T]];
    the last, y_{n-1}, forms only the diagonal of acc D_{n-2} y_{n-1}:
    for each i, the rows (c', i) of that real form times the rows (c, j)
    of column i, read at stride dB, d products (2, 2d)(2d, B) in all
    (a ring tensor would cost 2d^4).  Either route ends by summing its
    (2d, B) rows times D_{n-1} into the float view of the result.
    """
    if spectrum.evals.ndim != 1:
        raise DimensionMismatch("the pointwise integrand takes one spectrum, not a stack")
    mats, _, (table,) = _eigen_pool(spectrum, xs, [None], grading,
                                    "chain integrand with d=%d, n=%d")
    ys = list(mats[0, table[:, 0]])
    n = len(ys) - 1
    d = spectrum.dim
    lam = spectrum.evals
    block = _integrand_block(n, d)
    if n <= 2:
        # the ring on the rows a and the columns b or (b, c); n = 0, a
        # constant, reads none of it
        ring = ys[1].T[:, None, :] * ys[2][:, :, None] * ys[0] if n == 2 else ys[0].T * ys[n]
        first = np.stack([ring.real, ring.imag]).reshape(2 * d, -1)
        steps = []
    else:
        # first[c, j, i, a]: Re, Im of y_n[i, a] y_0[a, j], so Z = first h_n
        prod = ys[0].T[:, None, :] * ys[n]
        first = np.stack([prod.real, prod.imag]).reshape(-1, d)
        # acc[i, :] y_k on the rows (c, j), the columns (i, b)
        steps = [np.block([[y.T.real, -y.T.imag], [y.T.imag, y.T.real]]) for y in ys[1:n]]
        # close[i]: the rows (c', i) of the last step, which take the
        # diagonal (i, i) of acc y_{n-1} from the rows (c, j) of column i
        close = np.ascontiguousarray(steps.pop().reshape(2, d, 2 * d).transpose(1, 0, 2))
    neg = -lam

    def integrand(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != n:
            raise ValueError("expected points of dimension %d" % n)
        if n == 0:
            return np.full(len(pts), np.sum(np.diag(ys[0]) * np.exp(-lam)))
        count = pts.shape[0]
        out = np.empty(count, dtype=complex)
        # Re and Im of the values, the two rows of out's float view
        parts = out.view(float).reshape(count, 2).T
        work = np.empty(d * (n + 1) * min(block, count))
        for lo in range(0, count, block):
            chunk = pts[lo:lo + block]
            b = chunk.shape[0]
            # 0, s_1, .., s_n, 1 on rows: the gaps are the row differences
            ends = np.empty((n + 2, b))
            ends[0], ends[1:-1], ends[-1] = 0.0, chunk.T, 1.0
            # heat[:, k] holds D_k, exponentiated in place
            heat = work[:d * (n + 1) * b].reshape(d, n + 1, b)
            np.multiply.outer(neg, ends[1:] - ends[:-1], out=heat)
            np.exp(heat, out=heat)
            # the columns of the first GEMM: D_2 (x) D_0 on the ring at n = 2
            cols = (heat[:, 2, None] * heat[:, 0]).reshape(-1, b) if n == 2 else heat[:, n]
            acc = first @ cols
            for k, step in enumerate(steps, 1):
                rows = acc.reshape(2, d, d, b)
                rows *= heat[:, k - 1, None]
                acc = step @ acc.reshape(2 * d, -1)
            if n >= 3:
                rows = acc.reshape(2, d, d, b)
                rows *= heat[:, n - 2, None]
                # d products (2, 2d)(2d, B), the rows (c, j) of column i
                # read at stride dB, into the rows (c', i)
                acc = np.empty((2, d, b))
                np.matmul(close, rows.reshape(2 * d, d, b).transpose(1, 0, 2),
                          out=acc.transpose(1, 0, 2))
            last = acc.reshape(2, d, b)
            last *= heat[:, n - 1]
            np.sum(last, axis=1, out=parts[:, lo:lo + b])
        return out

    return integrand


# ---------------------------------------------------------------------------
# simplex quadrature


# the error estimate compares order k with order max(1, k - 2)
GAUSS_MIN_ORDER = 2
# the tensor rule takes order^n points: the highest degree it is run at
GAUSS_MAX_DEGREE = 6


@dataclass(frozen=True)
class SimplexQuadratureRule:
    """Cubature rule on the ordered simplex Delta_n.

    kind "gauss" uses a tensor Gauss-Legendre rule of the given order mapped
    through the ordered Duffy transform; kind "mc" averages the integrand
    over seeded sorted-uniform samples: default_rng(seed) draws batches of
    at most 2e5 points, which a compare-exchange network puts in order
    with np.sort's bits.  The integrand takes a (B, n) batch of points and
    returns the B values.  A Gauss order below GAUSS_MIN_ORDER is refused:
    its error estimate would compare the rule with itself.
    order_or_samples must be an integer >= 1 and seed an integer >= 0; a
    bool or a float is refused rather than truncated.  The degree a rule
    can run at is checked by price, which simplex_quadrature calls.
    """

    kind: str
    order_or_samples: int
    seed: int = 0
    # held only for perfbench/workloads.py, which passes vectorized=True
    vectorized: bool = True

    def __post_init__(self):
        if self.kind not in ("gauss", "mc"):
            raise ValueError("quadrature kind must be 'gauss' or 'mc', got %r" % (self.kind,))
        if self.vectorized is not True:
            raise ValueError("vectorized must be True, the value perfbench/workloads.py "
                             "passes: the integrand takes a batch of points")
        check_integer("order_or_samples", self.order_or_samples, 1)
        check_integer("seed", self.seed, 0)
        if self.kind == "gauss" and self.order_or_samples < GAUSS_MIN_ORDER:
            raise ValueError("Gauss order must be at least %d, got %d"
                             % (GAUSS_MIN_ORDER, self.order_or_samples))

    @classmethod
    def parse(cls, text):
        """The rule of 'gauss:<order>' or 'mc:<samples>'; ValueError else."""
        kind, _, num = text.partition(":")
        kind = kind.strip().lower()
        if kind not in ("gauss", "mc") or not num.strip().isdigit() or int(num) < 1:
            raise ValueError("quadrature must be gauss:<order> or mc:<samples> "
                             "with a positive count, got %r" % text)
        return cls(kind, int(num))

    def price(self, n):
        """Refuse this rule at degree n before any of its work starts.

        A Gauss rule takes degree n <= GAUSS_MAX_DEGREE (ValueError), and
        its work, order^n integrand points plus the order^2 of the
        companion matrix that leggauss builds for the nodes, is priced
        against chain_budget(): ChainBudgetExceeded gives the cost.  Monte
        Carlo takes any degree.
        """
        if self.kind != "gauss":
            return
        if n > GAUSS_MAX_DEGREE:
            raise ValueError("the Gauss rule takes degree n <= %d, got %d; "
                             "use mc:<samples>" % (GAUSS_MAX_DEGREE, n))
        order = self.order_or_samples
        _refuse_over_budget(float(order) ** n + float(order) ** 2,
                            "a Gauss rule of order %d at degree %d needs %d^%d points "
                            "plus a %d^2 node matrix", order, n, order, n, order)


@functools.lru_cache(maxsize=32)
def gauss_legendre_01(order):
    """Gauss-Legendre nodes and weights on [0, 1], shared read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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


@functools.lru_cache(maxsize=32)
def _merge_exchanges(n):
    # the compare-exchange pairs (low, high) of Batcher's odd-even merge
    # sort (AFIPS SJCC 32, 1968) on the power of two at or above n, in
    # order, without the pairs that touch a slot >= n: such slots act as
    # +inf padding, which no exchange moves
    size = 1 << max(0, n - 1).bit_length()
    pairs = []
    p = 1
    while p < size:
        k = p
        while k >= 1:
            for j in range(k % p, size - k, 2 * k):
                for i in range(j, j + min(k, size - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p) and i + k < n:
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _sorted_rows(u):
    # np.sort(u, axis=1) of a (B, n) draw, bit for bit, since min and max
    # only move values.  Returns the (B, n) view of the sorted (n, B) copy,
    # so heat_chain_integrand's chunk.T reads contiguous rows; for n = 1,
    # u.T is contiguous already and no exchange writes to it
    cols = np.ascontiguousarray(u.T)
    low = np.empty(cols.shape[1])
    for a, b in _merge_exchanges(cols.shape[0]):
        np.minimum(cols[a], cols[b], out=low)
        np.maximum(cols[a], cols[b], out=cols[b])
        cols[a] = low
    return cols.T


def _eval_integrand(integrand, pts):
    # one value per point: a scalar from a batch would be summed once and
    # divided by every draw, and a short array would not meet the weights
    vals = np.asarray(integrand(pts), dtype=complex).reshape(-1)
    if vals.shape[0] != pts.shape[0]:
        raise ValueError("the integrand returned %d values for %d points"
                         % (vals.shape[0], pts.shape[0]))
    return vals


def simplex_quadrature(integrand, n, rule):
    """Integrate over the ordered simplex Delta_n.

    Returns (value, error_estimate).  For the Gauss path the estimate is
    the difference against a lower-order rule; for Monte Carlo it is the
    standard error of the mean.  A rule that rule.price refuses at degree
    n raises its ValueError or ChainBudgetExceeded before any point is
    built; so does a degree that is not an integer >= 0 (ValueError).
    The integrand must return one value per point of each (B, n) batch
    (at n = 0, one point); any other count raises ValueError naming both.
    """
    check_integer("degree", n, 0)
    if n == 0:
        pts = np.zeros((1, 0))
        val = _eval_integrand(integrand, pts)[0]
        return complex(val), 0.0

    rule.price(n)
    if rule.kind == "gauss":
        order = int(rule.order_or_samples)
        s, w = _duffy_points(order, n)
        vals = _eval_integrand(integrand, s)
        value = complex(np.dot(w, vals))
        low = max(1, order - 2)
        s2, w2 = _duffy_points(low, n)
        vals2 = _eval_integrand(integrand, s2)
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
        pts = _sorted_rows(rng.random((take, n)))
        vals = _eval_integrand(integrand, pts)
        acc += vals.sum()
        acc_sq += float(np.sum(np.abs(vals) ** 2))
        count += take
    mean = acc / count
    if count > 1:
        var = max(0.0, (acc_sq / count - abs(mean) ** 2) * count / (count - 1))
        stderr = math.sqrt(var / count) / nfact
    else:
        stderr = float("inf")
    return complex(mean / nfact), stderr
